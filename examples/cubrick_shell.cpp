// cubrick_shell — a minimal interactive shell over the Database API.
//
// Usage:  ./build/examples/example_cubrick_shell  (reads commands on stdin)
//
//   CREATE CUBE name (col type [CARDINALITY n [RANGE m]], ...)
//   LOAD <cube> <csv values>          one record, e.g.  LOAD sales US,3,100
//   QUERY <cube> <SUM|COUNT|MIN|MAX|AVG> <metric> [BY <dim>]
//         [WHERE <dim>=<value>]
//   SELECT <cube> [LIMIT n]           materialize rows
//   DELETE <cube> WHERE <dim>=<value> partition-granular delete
//   STATS                             record counts and memory
//   HELP / QUIT
//
// Piped demo:
//   ./build/examples/example_cubrick_shell <<'EOF'
//   CREATE CUBE s (region string CARDINALITY 4 RANGE 1, v int)
//   LOAD s US,10
//   LOAD s BR,20
//   QUERY s SUM v BY region
//   QUIT
//   EOF
//
// ctest runs the same demo from cubrick_shell_demo.txt (run_shell_demo.cmake).

#include <cstdio>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "cubrick/database.h"

using namespace cubrick;

namespace {

std::vector<std::string> Split(const std::string& line) {
  std::istringstream in(line);
  std::vector<std::string> tokens;
  std::string token;
  while (in >> token) tokens.push_back(token);
  return tokens;
}

std::string Upper(std::string s) {
  for (char& c : s) c = static_cast<char>(std::toupper(c));
  return s;
}

/// Parses "dim=value" into a filter via the facade helpers.
Result<FilterClause> ParseWhere(Database& db, const std::string& cube,
                                const std::string& expr) {
  const size_t eq = expr.find('=');
  if (eq == std::string::npos) {
    return Status::InvalidArgument("WHERE expects dim=value");
  }
  const std::string dim = expr.substr(0, eq);
  const std::string value = expr.substr(eq + 1);
  auto schema = db.FindSchema(cube);
  if (schema == nullptr) {
    return Status::NotFound("no cube '" + cube + "'");
  }
  auto dim_idx = schema->DimensionIndex(dim);
  if (!dim_idx.ok()) return dim_idx.status();
  if (schema->dimensions()[*dim_idx].is_string) {
    return db.EqFilter(cube, dim, value);
  }
  return db.EqFilter(cube, dim, static_cast<int64_t>(std::atoll(
                                    value.c_str())));
}

void RunQuery(Database& db, const std::vector<std::string>& tokens) {
  // QUERY <cube> <FN> <metric> [BY <dim>] [WHERE <dim>=<value>]
  if (tokens.size() < 4) {
    std::printf("usage: QUERY <cube> <SUM|COUNT|MIN|MAX|AVG> <metric> "
                "[BY dim] [WHERE dim=value]\n");
    return;
  }
  const std::string& cube = tokens[1];
  auto schema = db.FindSchema(cube);
  if (schema == nullptr) {
    std::printf("error: no cube '%s'\n", cube.c_str());
    return;
  }
  const std::string fn_name = Upper(tokens[2]);
  AggSpec::Fn fn;
  if (fn_name == "SUM") {
    fn = AggSpec::Fn::kSum;
  } else if (fn_name == "COUNT") {
    fn = AggSpec::Fn::kCount;
  } else if (fn_name == "MIN") {
    fn = AggSpec::Fn::kMin;
  } else if (fn_name == "MAX") {
    fn = AggSpec::Fn::kMax;
  } else if (fn_name == "AVG") {
    fn = AggSpec::Fn::kAvg;
  } else {
    std::printf("error: unknown aggregate '%s'\n", tokens[2].c_str());
    return;
  }
  auto metric = schema->MetricIndex(tokens[3]);
  if (!metric.ok()) {
    std::printf("error: %s\n", metric.status().ToString().c_str());
    return;
  }

  Query q;
  q.aggs = {{fn, *metric}};
  size_t group_dim = 0;
  bool grouped = false;
  for (size_t i = 4; i + 1 < tokens.size() + 1; ++i) {
    if (i + 1 < tokens.size() && Upper(tokens[i]) == "BY") {
      auto dim = schema->DimensionIndex(tokens[i + 1]);
      if (!dim.ok()) {
        std::printf("error: %s\n", dim.status().ToString().c_str());
        return;
      }
      grouped = true;
      group_dim = *dim;
      q.group_by = {group_dim};
      ++i;
    } else if (i + 1 < tokens.size() && Upper(tokens[i]) == "WHERE") {
      auto filter = ParseWhere(db, cube, tokens[i + 1]);
      if (!filter.ok()) {
        std::printf("error: %s\n", filter.status().ToString().c_str());
        return;
      }
      q.filters.push_back(*filter);
      ++i;
    }
  }

  auto result = db.Query(cube, q);
  if (!result.ok()) {
    std::printf("error: %s\n", result.status().ToString().c_str());
    return;
  }
  if (!grouped) {
    std::printf("%s(%s) = %g\n", fn_name.c_str(), tokens[3].c_str(),
                result->Single(0, fn));
    return;
  }
  for (const auto& [key, states] : result->groups()) {
    std::string label;
    if (schema->dimensions()[group_dim].is_string) {
      label = schema->dictionary(group_dim)->Decode(key[0]).value();
    } else {
      label = std::to_string(key[0]);
    }
    std::printf("  %-16s %g\n", label.c_str(), states[0].Finalize(fn));
  }
}

void RunSelect(Database& db, const std::vector<std::string>& tokens) {
  if (tokens.size() < 2) {
    std::printf("usage: SELECT <cube> [LIMIT n]\n");
    return;
  }
  MaterializeOptions options;
  options.limit = 20;
  if (tokens.size() >= 4 && Upper(tokens[2]) == "LIMIT") {
    options.limit = static_cast<uint64_t>(std::atoll(tokens[3].c_str()));
  }
  auto rows = db.Select(tokens[1], {}, options);
  if (!rows.ok()) {
    std::printf("error: %s\n", rows.status().ToString().c_str());
    return;
  }
  for (const auto& row : *rows) {
    std::string line;
    for (size_t i = 0; i < row.values.size(); ++i) {
      if (i > 0) line += ", ";
      line += row.values[i].ToString();
    }
    std::printf("  %s\n", line.c_str());
  }
  std::printf("(%zu rows)\n", rows->size());
}

}  // namespace

int main() {
  Database db;
  std::printf("cubrick shell — AOSI in-memory OLAP. Type HELP.\n");
  std::string line;
  while (std::printf("> "), std::fflush(stdout),
         std::getline(std::cin, line)) {
    const auto tokens = Split(line);
    if (tokens.empty()) continue;
    const std::string cmd = Upper(tokens[0]);
    if (cmd == "QUIT" || cmd == "EXIT") break;
    if (cmd == "HELP") {
      std::printf(
          "  CREATE CUBE name (col type [CARDINALITY n [RANGE m]], ...)\n"
          "  LOAD <cube> <csv>\n"
          "  QUERY <cube> <SUM|COUNT|MIN|MAX|AVG> <metric> [BY dim] "
          "[WHERE dim=value]\n"
          "  SELECT <cube> [LIMIT n]\n"
          "  EXPLAIN <cube> [WHERE dim=value]\n"
          "  DELETE <cube> WHERE <dim>=<value>\n"
          "  STATS | HELP | QUIT\n");
    } else if (cmd == "CREATE") {
      const Status status = db.ExecuteDdl(line);
      std::printf("%s\n", status.ok() ? "ok" : status.ToString().c_str());
    } else if (cmd == "LOAD") {
      if (tokens.size() < 3) {
        std::printf("usage: LOAD <cube> <csv values>\n");
        continue;
      }
      auto schema = db.FindSchema(tokens[1]);
      if (schema == nullptr) {
        std::printf("error: no cube '%s'\n", tokens[1].c_str());
        continue;
      }
      auto record = ParseCsvLine(*schema, tokens[2]);
      if (!record.ok()) {
        std::printf("error: %s\n", record.status().ToString().c_str());
        continue;
      }
      const Status status = db.Load(tokens[1], {*record});
      std::printf("%s\n", status.ok() ? "ok (1 record, implicit txn)"
                                      : status.ToString().c_str());
    } else if (cmd == "QUERY") {
      RunQuery(db, tokens);
    } else if (cmd == "SELECT") {
      RunSelect(db, tokens);
    } else if (cmd == "EXPLAIN") {
      // EXPLAIN <cube> [WHERE dim=value] — granular-partitioning pruning.
      if (tokens.size() < 2) {
        std::printf("usage: EXPLAIN <cube> [WHERE dim=value]\n");
        continue;
      }
      Table* table = db.FindTable(tokens[1]);
      if (table == nullptr) {
        std::printf("error: no cube '%s'\n", tokens[1].c_str());
        continue;
      }
      Query q;
      if (tokens.size() >= 4 && Upper(tokens[2]) == "WHERE") {
        auto filter = ParseWhere(db, tokens[1], tokens[3]);
        if (!filter.ok()) {
          std::printf("error: %s\n", filter.status().ToString().c_str());
          continue;
        }
        q.filters.push_back(*filter);
      }
      const ScanPlanStats stats = table->ExplainScan(q);
      std::printf("  bricks: %llu total, %llu pruned by ranges, %llu "
                  "scanned\n  rows considered: %llu; filters skipped as "
                  "range-covered: %llu\n",
                  static_cast<unsigned long long>(stats.bricks_total),
                  static_cast<unsigned long long>(stats.bricks_pruned),
                  static_cast<unsigned long long>(stats.bricks_scanned),
                  static_cast<unsigned long long>(stats.rows_considered),
                  static_cast<unsigned long long>(
                      stats.filters_skipped_covered));
    } else if (cmd == "DELETE") {
      if (tokens.size() < 4 || Upper(tokens[2]) != "WHERE") {
        std::printf("usage: DELETE <cube> WHERE <dim>=<value>\n");
        continue;
      }
      auto filter = ParseWhere(db, tokens[1], tokens[3]);
      if (!filter.ok()) {
        std::printf("error: %s\n", filter.status().ToString().c_str());
        continue;
      }
      const Status status = db.DeletePartitions(tokens[1], {*filter});
      std::printf("%s\n", status.ok() ? "ok (partitions marked deleted)"
                                      : status.ToString().c_str());
    } else if (cmd == "STATS") {
      std::printf("  cubes: ");
      for (const auto& name : db.CubeNames()) {
        std::printf("%s ", name.c_str());
      }
      std::printf("\n  records: %llu\n  data bytes: %zu\n"
                  "  AOSI overhead bytes: %zu\n  EC=%llu LCE=%llu LSE=%llu\n",
                  static_cast<unsigned long long>(db.TotalRecords()),
                  db.DataMemoryUsage(), db.HistoryMemoryUsage(),
                  static_cast<unsigned long long>(db.txns().EC()),
                  static_cast<unsigned long long>(db.txns().LCE()),
                  static_cast<unsigned long long>(db.txns().LSE()));
    } else {
      std::printf("unknown command '%s' (try HELP)\n", tokens[0].c_str());
    }
  }
  return 0;
}
