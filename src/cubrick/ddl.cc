#include "cubrick/ddl.h"

#include <cctype>
#include <limits>

namespace cubrick {

namespace {

std::vector<std::string> Tokenize(const std::string& ddl) {
  std::vector<std::string> tokens;
  std::string current;
  for (char c : ddl) {
    if (std::isspace(static_cast<unsigned char>(c)) || c == ',' || c == '(' ||
        c == ')' || c == ';') {
      if (!current.empty()) {
        tokens.push_back(current);
        current.clear();
      }
      if (c == '(' || c == ')' || c == ',') {
        tokens.push_back(std::string(1, c));
      }
    } else {
      current.push_back(c);
    }
  }
  if (!current.empty()) tokens.push_back(current);
  return tokens;
}

std::string Upper(const std::string& s) {
  std::string out = s;
  for (char& c : out) c = static_cast<char>(std::toupper(c));
  return out;
}

bool IsKeyword(const std::string& token, const char* keyword) {
  return Upper(token) == keyword;
}

Result<uint64_t> ParseNumber(const std::string& token) {
  if (token.empty()) return Status::InvalidArgument("expected a number");
  uint64_t v = 0;
  for (char c : token) {
    if (!std::isdigit(static_cast<unsigned char>(c))) {
      return Status::InvalidArgument("expected a number, got '" + token + "'");
    }
    const uint64_t digit = static_cast<uint64_t>(c - '0');
    if (v > (std::numeric_limits<uint64_t>::max() - digit) / 10) {
      return Status::InvalidArgument("number '" + token +
                                     "' does not fit in 64 bits");
    }
    v = v * 10 + digit;
  }
  return v;
}

}  // namespace

Result<DdlStatement> ParseCreateCube(const std::string& ddl) {
  const auto tokens = Tokenize(ddl);
  size_t i = 0;
  auto expect = [&](const char* keyword) -> Status {
    if (i >= tokens.size() || !IsKeyword(tokens[i], keyword)) {
      return Status::InvalidArgument(std::string("expected '") + keyword +
                                     "'");
    }
    ++i;
    return Status::OK();
  };

  DdlStatement stmt;
  CUBRICK_RETURN_IF_ERROR(expect("CREATE"));
  CUBRICK_RETURN_IF_ERROR(expect("CUBE"));
  if (i >= tokens.size()) {
    return Status::InvalidArgument("expected cube name");
  }
  stmt.cube_name = tokens[i++];
  CUBRICK_RETURN_IF_ERROR(expect("("));

  while (i < tokens.size() && tokens[i] != ")") {
    if (tokens[i] == ",") {
      ++i;
      continue;
    }
    const std::string col_name = tokens[i++];
    if (i >= tokens.size()) {
      return Status::InvalidArgument("column '" + col_name +
                                     "' is missing a type");
    }
    const std::string type_token = Upper(tokens[i++]);
    bool is_string = false;
    DataType type;
    if (type_token == "STRING") {
      is_string = true;
      type = DataType::kString;
    } else if (type_token == "INT" || type_token == "INT64" ||
               type_token == "BIGINT") {
      type = DataType::kInt64;
    } else if (type_token == "DOUBLE" || type_token == "FLOAT") {
      type = DataType::kDouble;
    } else {
      return Status::InvalidArgument("unknown type '" + type_token +
                                     "' for column '" + col_name + "'");
    }

    if (i < tokens.size() && IsKeyword(tokens[i], "CARDINALITY")) {
      ++i;
      if (i >= tokens.size()) {
        return Status::InvalidArgument("CARDINALITY needs a value");
      }
      auto cardinality = ParseNumber(tokens[i++]);
      if (!cardinality.ok()) return cardinality.status();
      uint64_t range_size = 1;
      if (i < tokens.size() && IsKeyword(tokens[i], "RANGE")) {
        ++i;
        if (i >= tokens.size()) {
          return Status::InvalidArgument("RANGE needs a value");
        }
        auto range = ParseNumber(tokens[i++]);
        if (!range.ok()) return range.status();
        range_size = *range;
      }
      if (type == DataType::kDouble) {
        return Status::InvalidArgument("dimension '" + col_name +
                                       "' cannot be double");
      }
      stmt.dimensions.push_back(
          DimensionDef{col_name, *cardinality, range_size, is_string});
    } else {
      stmt.metrics.push_back(MetricDef{col_name, type});
    }
  }
  if (i >= tokens.size() || tokens[i] != ")") {
    return Status::InvalidArgument("missing closing ')'");
  }
  ++i;
  if (i < tokens.size()) {
    return Status::InvalidArgument("trailing tokens after ')'");
  }
  if (stmt.dimensions.empty()) {
    return Status::InvalidArgument(
        "a cube needs at least one dimension (CARDINALITY clause)");
  }
  return stmt;
}

}  // namespace cubrick
