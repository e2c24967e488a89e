#!/usr/bin/env python3
"""Compares ledger runs of two commits, or writes and checks LEDGER.json.

    compare.py [--layers] A.json... -- B.json...
    compare.py --make-ledger --sha SHA --trace T.json A.json...
               [--check B.json...] [--sensitivity S.json...] > LEDGER.json
    compare.py --check-spec
    compare.py --selftest

A and B are `ledger --out` files: several runs of the base commit before
`--`, several of the candidate after it. A LEDGER.json may stand for the
runs it recorded. For every workload and end-to-end metric it prints each
side's median and quartiles, the change of the medians, and a verdict
against that workload's bound in LEDGER.json:

  worse       the candidate's median is worse by more than the bound
  better      the candidate's median is better by more than the bound
  unchanged   the medians differ by no more than the bound
  unresolved  either side's quartile spread exceeds the bound, and not
              every candidate run beats every base run

Exits 1 when any metric is worse. --layers adds the per-layer metrics,
without verdicts.

Bounds have one source: LEDGER.json gives each (workload, end-to-end
metric) the bound max(10%, (max-min)/median over its set-1 runs), rounded
up to 5%; a second set of runs, held out, is judged against them. The bound of a metric in BENCHMARK.json is the largest
over the workloads, and setup_s takes the largest of all; --check-spec
fails when BENCHMARK.json says otherwise or a bound exceeds 25%.
"""

import argparse
import json
import math
import re
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
DEFAULT_SPEC = HERE.parent.parent / "BENCHMARK.json"
DEFAULT_LEDGER = HERE / "LEDGER.json"
MAX_BOUND = 0.25
BOUND_RULE = "max(10%, (max-min)/median over set 1), rounded up to 5%"


def load_runs(paths):
    """{workload: {metric: [values across runs]}} plus units. A LEDGER.json
    contributes every untraced run it recorded."""
    values, units = {}, {}
    for path in paths:
        run = json.loads(Path(path).read_text())
        for workload, record in run["workloads"].items():
            if "end_to_end" in record:
                recorded = {**record["end_to_end"], **record["other"]}
            else:
                recorded = {name: {"unit": m["unit"], "values": [m["value"]]}
                            for name, m in record["metrics"].items()}
            for name, m in recorded.items():
                values.setdefault(workload, {}).setdefault(name, []).extend(
                    m["values"])
                units[name] = m["unit"]
    return values, units


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def rule_bound(values):
    """The bound the committed runs imply for one (workload, metric)."""
    med = statistics.median(values)
    spread = (max(values) - min(values)) / abs(med) if med else 0.0
    return max(0.10, math.ceil(spread * 20 - 1e-9) / 20), spread


def verdict(base, cand, bound, better):
    """(change, verdict) for one metric; change > 0 means worse."""
    sign = 1 if better == "lower" else -1
    mb, mc = statistics.median(base), statistics.median(cand)
    if mb == 0:
        return 0.0, "unresolved"
    change = sign * (mc - mb) / abs(mb)
    spread = 0.0
    for side, med in ((base, mb), (cand, mc)):
        q1, q3 = quartiles(side)
        if med != 0:
            spread = max(spread, (q3 - q1) / abs(med))
    all_better = all(sign * (c - b) < 0 for c in cand for b in base)
    if spread > bound and not all_better:
        return change, "unresolved"
    if change > bound:
        return change, "worse"
    if change < -bound:
        return change, "better"
    return change, "unchanged"


def fmt(values):
    q1, q3 = quartiles(values)
    return f"{statistics.median(values):.4g} [{q1:.4g}, {q3:.4g}]"


def ledger_bounds(ledger):
    """{(workload, metric): bound} from a LEDGER.json object."""
    return {(w, name): m["bound"]
            for w, entry in ledger["workloads"].items()
            for name, m in entry["end_to_end"].items()}


def compare(base, cand, units, spec, bounds, layers):
    """Rows (workload, metric, unit, base, candidate, change, bound, verdict)
    for the workloads both sides ran."""
    rows = []
    for workload in [w["name"] for w in spec["workloads"]]:
        if workload not in base or workload not in cand:
            continue
        metrics = [(m, True) for m in spec["end_to_end"]]
        if layers:
            metrics += [(m, False) for m in spec["per_layer"]]
        for m, gated in metrics:
            a = base[workload].get(m["name"])
            b = cand[workload].get(m["name"])
            if not a or not b:
                continue
            if gated:
                bound = bounds[(workload, m["name"])]
                change, v = verdict(a, b, bound, m["better"])
                shown = f"{bound:.0%}"
            else:
                change = verdict(a, b, math.inf, m["better"])[0]
                v, shown = "-", "-"
            rows.append((workload, m["name"], units.get(m["name"], ""),
                         fmt(a), fmt(b), f"{change:+.1%}", shown, v))
    return rows


def print_rows(rows, out=sys.stdout):
    header = ("workload", "metric", "unit", "base median [q1, q3]",
              "candidate median [q1, q3]", "worse by", "bound", "verdict")
    widths = [max(len(str(r[i])) for r in rows + [header])
              for i in range(len(header))]
    for r in [header] + rows:
        print("  ".join(str(c).ljust(w) for c, w in zip(r, widths)).rstrip(),
              file=out)


def row_dicts(rows):
    """{workload: {metric: {...}}} of compare() rows, for LEDGER.json."""
    out = {}
    for workload, metric, unit, a, b, change, bound, v in rows:
        out.setdefault(workload, {})[metric] = {
            "unit": unit, "set_1": a, "runs": b, "worse_by": change,
            "bound": bound, "verdict": v}
    return out


def make_ledger(sha, trace_path, run_paths, check_paths, sensitivity_paths,
                spec):
    """LEDGER.json: set 1 (the untraced runs) with their medians, spreads
    and the bounds they imply; set 2 (`check_paths`, held out from the
    bounds) and any sensitivity runs judged against set 1; one traced run."""
    def read(paths):
        return [json.loads(Path(p).read_text()) for p in paths]

    gated = {m["name"] for m in spec["end_to_end"]}
    runs = read(run_paths)
    trace = read([trace_path])[0]
    values, units = load_runs(run_paths)
    ledger = {
        "git_sha": sha,
        "machine": runs[0]["stamp"],
        "seconds": runs[0]["seconds"],
        "seeds": [r["seed"] for r in runs],
        "steal_share": [r["stamp"]["steal_share"] for r in runs],
        "bound_rule": BOUND_RULE,
        "workloads": {},
    }
    for workload, metrics in values.items():
        entry = {"end_to_end": {}, "other": {}, "traced": {}}
        for name, vals in metrics.items():
            row = {"unit": units[name], "median": statistics.median(vals)}
            bound, spread = rule_bound(vals)
            row["spread"] = round(spread, 4)
            if name in gated:
                row["bound"] = bound
                entry["end_to_end"][name] = row
            else:
                entry["other"][name] = row
            row["values"] = vals
        for name, m in trace["workloads"].get(workload, {}).get(
                "metrics", {}).items():
            entry["traced"][name] = {"value": m["value"], "unit": m["unit"],
                                     "n": m["n"]}
        ledger["workloads"][workload] = entry
    bounds = ledger_bounds(ledger)
    for key, paths in (("check", check_paths),
                       ("sensitivity", sensitivity_paths)):
        if not paths:
            continue
        cand, _ = load_runs(paths)
        ledger[key] = {
            "seeds": [r["seed"] for r in read(paths)],
            "steal_share": [r["stamp"]["steal_share"] for r in read(paths)],
            "ingest_parallelism": read(paths)[0]["ingest_parallelism"],
            "against_set_1": row_dicts(
                compare(values, cand, units, spec, bounds, layers=False)),
        }
    return ledger


def spec_bounds(ledger, spec):
    """The BENCHMARK.json bound each end-to-end metric should carry."""
    per_metric = {}
    for (_, name), bound in ledger_bounds(ledger).items():
        per_metric[name] = max(per_metric.get(name, 0), bound)
    names = [m["name"] for m in spec["end_to_end"]]
    if "setup_s" in per_metric:
        per_metric["setup_s"] = max(per_metric[n] for n in names)
    return per_metric


def check_spec(ledger, spec, out=sys.stdout):
    """0 when every BENCHMARK.json bound is the one LEDGER.json implies."""
    want = spec_bounds(ledger, spec)
    ok = True
    for m in spec["end_to_end"]:
        expected = want.get(m["name"])
        if expected is None or not math.isclose(m["bound"], expected):
            print(f"{m['name']}: BENCHMARK.json bound {m['bound']}, "
                  f"LEDGER.json implies {expected}", file=out)
            ok = False
        elif expected > MAX_BOUND:
            print(f"{m['name']}: bound {expected} exceeds {MAX_BOUND}; run "
                  f"longer or demote it to per_layer", file=out)
            ok = False
    return 0 if ok else 1


def dumps(ledger):
    """Indented JSON with every list of numbers kept on one line."""
    text = json.dumps(ledger, indent=1)
    return re.sub(r"\[\s+([^\[\]{}\"]*?)\s+\]",
                  lambda m: "[" + re.sub(r"\s+", " ", m.group(1)) + "]", text)


def selftest():
    fixtures = HERE / "fixtures"
    base = sorted(str(p) for p in fixtures.glob("base-*.json"))
    cand = sorted(str(p) for p in fixtures.glob("cand-*.json"))
    spec = json.loads((fixtures / "spec.json").read_text())
    ok = True

    # The bound rule: a 3% spread gets the 10% floor, a 60% one its own.
    ledger = json.loads(dumps(make_ledger("0" * 40, base[0], base, [], [],
                                          spec)))
    rows = ledger["workloads"]["w"]["end_to_end"]
    ok = ok and rows["lat_ms"]["bound"] == 0.1
    ok = ok and rows["noisy_ms"]["bound"] == 0.6
    ok = ok and rows["noisy_ms"]["median"] == 10
    ok = ok and rows["noisy_ms"]["values"] == [10, 14, 8]
    with open("/dev/null", "w") as sink:
        ok = ok and check_spec(ledger, spec, out=sink) == 1

    # Held-out runs are judged against the bounds of set 1.
    held_out = make_ledger("0" * 40, base[0], base, cand, [], spec)
    judged = held_out["check"]["against_set_1"]["w"]
    ok = ok and judged["lat_ms"]["verdict"] == "worse"
    ok = ok and judged["mem_mb"]["verdict"] == "unchanged"

    # Verdicts, with every bound set to 10%.
    for row in rows.values():
        row["bound"] = 0.1
    expected = {"lat_ms": "worse", "rows_per_s": "better",
                "mem_mb": "unchanged", "noisy_ms": "unresolved",
                "separated_ms": "better"}
    a, units = load_runs(base)
    b, _ = load_runs(cand)
    bounds = ledger_bounds(ledger)
    got = {r[1]: r[7] for r in compare(a, b, units, spec, bounds, False)}
    ok = ok and got == expected
    ok = ok and not any(r[7] == "worse"
                        for r in compare(a, a, units, spec, bounds, False))

    # BENCHMARK.json carries the largest bound per metric, and setup_s the
    # largest of all.
    with open("/dev/null", "w") as sink:
        ok = ok and check_spec(ledger, spec, out=sink) == 0
    two = {"workloads": {
        "a": {"end_to_end": {"setup_s": {"bound": 0.1}, "x": {"bound": 0.1}}},
        "b": {"end_to_end": {"setup_s": {"bound": 0.1}, "x": {"bound": 0.2}}}}}
    names = {"end_to_end": [{"name": "setup_s"}, {"name": "x"}]}
    ok = ok and spec_bounds(two, names) == {"setup_s": 0.2, "x": 0.2}
    print("selftest", "passed" if ok else f"FAILED: {got}")
    return 0 if ok else 1


def main(argv):
    if argv == ["--selftest"]:
        return selftest()
    cand_files = []
    if "--" in argv:
        split = argv.index("--")
        argv, cand_files = argv[:split], argv[split + 1:]
    parser = argparse.ArgumentParser(
        description="Compare ledger runs or write LEDGER.json.")
    parser.add_argument("--spec", default=str(DEFAULT_SPEC))
    parser.add_argument("--ledger", default=str(DEFAULT_LEDGER))
    parser.add_argument("--layers", action="store_true")
    parser.add_argument("--check-spec", action="store_true")
    parser.add_argument("--make-ledger", action="store_true")
    parser.add_argument("--sha")
    parser.add_argument("--trace")
    parser.add_argument("--check", nargs="+", default=[])
    parser.add_argument("--sensitivity", nargs="+", default=[])
    parser.add_argument("files", nargs="*")
    args = parser.parse_args(argv)
    spec = json.loads(Path(args.spec).read_text())
    if args.check_spec:
        return check_spec(json.loads(Path(args.ledger).read_text()), spec)
    if args.make_ledger:
        if not args.sha or not args.trace or not args.files:
            parser.error("--make-ledger needs --sha, --trace and runs")
        print(dumps(make_ledger(args.sha, args.trace, args.files, args.check,
                                args.sensitivity, spec)))
        return 0
    if not args.files or not cand_files:
        parser.error("list base files, then --, then candidate files")
    base, units = load_runs(args.files)
    cand, _ = load_runs(cand_files)
    bounds = ledger_bounds(json.loads(Path(args.ledger).read_text()))
    rows = compare(base, cand, units, spec, bounds, args.layers)
    print_rows(rows)
    return 1 if any(r[7] == "worse" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
