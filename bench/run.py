"""Pipeline benchmark for kgbench.

    python3 bench/run.py --workload fb-train --seed 1 --seconds 30 --trace 0

Generates the workload's seeded inputs under ``.bench_work/<workload>/``,
runs its stages through ``kgbench.cli.run`` in one child process (BLAS
pinned to one thread), checks every output without the program's own code
path, prints a human-readable report and, as the last line, one JSON
object ``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0``
the metrics are the end-to-end metrics; with ``--trace 1`` the stages run
once each under outside-in tracing and the metrics are the per-layer ones.
A failed stage ends the run with exit code 1 and no JSON line.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import gen  # noqa: E402
import spans  # noqa: E402

BLAS_THREADS = 1
TIMEOUT_S = 170
EVAL_SAMPLE = 20  # queries per eval whose ranks are recomputed
RULE_SAMPLE = 30  # mined rules whose counts are recomputed
PROBE_SHAPE = {
    "items": 120, "labeled": 80, "classes": 4, "base_edges": 90, "composed": 40,
    "attr_share": 0.8, "leaves": 0.05, "valid": 0, "test": 500,
}
PROBE_CLASSIFY = {"dims": "10", "epochs": 10, "every": 5, "outer": 3, "inner": 2}

# Every workload runs every stage kind, so every end-to-end metric exists on
# every workload. Each workload runs its own stages at full size on its own
# graph; the remaining stages run at probe size on a small planted graph.
# "order" lists the stage runs; a stage named n times gives n samples. The
# machine's speed drifts by up to a quarter over 5 to 10 s, so short stages
# run in rounds spread over the whole run, and their median follows the
# run's typical speed rather than that of one moment.
FB_TRAIN_PROBES = ["eval-complex", "eval-transe", "mine-rules", "apply-rules", "analyze", "classify"]
FB_RANK_PROBES = ["train", "mine-rules", "apply-rules", "analyze", "classify"]
SYM_ROUND = ["mine-rules", "apply-rules", "train", "eval-complex", "eval-transe", "apply-rules"]
WORKLOADS = {
    "fb-train": {
        "why": "FB15k-237-shaped graph: ingest and one DistMult epoch over all 272,115 train triples dominate; the only workload where kg construction and the embed training loop lead",
        "setup": "fb",
        "stages": [
            ("ingest", "fb", {}),
            ("ingest", "probe", {}),
            ("eval-complex", "probe", {"split": "test"}),
            ("eval-transe", "probe", {"split": "test"}),
            ("mine-rules", "probe", {}),
            ("apply-rules", "probe", {"split": "test"}),
            ("analyze", "probe", {}),
            ("classify", "probe", PROBE_CLASSIFY),
            ("train", "fb", {"dim": 50, "epochs": 1}),
        ],
        "order": ["ingest-probe", *FB_TRAIN_PROBES, "ingest-fb", *FB_TRAIN_PROBES, "ingest-fb", "ingest-fb",
                  *FB_TRAIN_PROBES, "train", *FB_TRAIN_PROBES],
    },
    "fb-rank": {
        "why": "same graph: ranking 1,000 filtered valid queries with untrained ComplEx and TransE; dense scoring dominates, and TransE is the case a GEMM rewrite of scoring skips",
        "setup": "fb",
        "stages": [
            ("ingest", "fb", {}),
            ("ingest", "probe", {}),
            ("train", "probe", {"dim": 50, "epochs": 5}),
            ("mine-rules", "probe", {}),
            ("apply-rules", "probe", {"split": "test"}),
            ("analyze", "probe", {}),
            ("classify", "probe", PROBE_CLASSIFY),
            ("eval-complex", "fb", {"split": "valid"}),
            ("eval-transe", "fb", {"split": "valid"}),
        ],
        "order": ["ingest-probe", *FB_RANK_PROBES, "ingest-fb", *FB_RANK_PROBES, "ingest-fb", "ingest-fb",
                  "eval-complex", *FB_RANK_PROBES, "eval-transe", *FB_RANK_PROBES],
    },
    "symbolic": {
        "why": "planted-rule graph: the only full-size run of rule mining, tie-heavy rule ranking, exact topology and classification; embed trains many small epochs here",
        "setup": "sym",
        "stages": [
            ("ingest", "sym", {}),
            ("train", "sym", {"dim": 50, "epochs": 1}),
            ("eval-complex", "sym", {"split": "valid"}),
            ("eval-transe", "sym", {"split": "valid"}),
            ("mine-rules", "sym", {}),
            ("apply-rules", "sym", {"split": "test"}),
            ("analyze", "sym", {}),
            ("classify", "sym", {"dims": "10", "epochs": 20, "every": 10, "outer": 3, "inner": 2}),
        ],
        "order": ["ingest-sym"] * 5 + [*SYM_ROUND, "analyze", *SYM_ROUND, "classify", *SYM_ROUND],
    },
}

END_TO_END = [  # name, unit
    ("setup_s", "s"), ("train_triples_per_s", "1/s"), ("complex_eval_queries_per_s", "1/s"),
    ("transe_eval_queries_per_s", "1/s"), ("rule_eval_queries_per_s", "1/s"), ("mine_s", "s"),
    ("analyze_s", "s"), ("classify_s", "s"), ("pipeline_s", "s"), ("peak_rss_mb", "MB"),
]


# -- inputs and plan ------------------------------------------------------------


def write_inputs(work: Path, graphs: set[str], seed: int) -> dict[str, dict[str, Path]]:
    """Input files per graph, as paths relative to the work directory (the
    program sees relative paths, so its manifests do not name the checkout)."""
    paths = {}
    for g in sorted(graphs):
        out = work / "data" / g
        if g == "fb":
            written = gen.write_fb(out, seed)
        elif g == "sym":
            written = gen.write_symbolic(out, seed)
        else:
            written = gen.write_symbolic(out, seed + 1, PROBE_SHAPE)
        paths[g] = {k: p.relative_to(work) for k, p in written.items()}
    return paths


def stage_plan(name: str, kind: str, g: str, opts: dict, data: dict[str, Path], seed: int) -> dict:
    """One CLI invocation, with paths relative to the work directory."""
    kg = f"kg/{g}"
    rel = {k: str(p) for k, p in data.items()}
    out = f"out/{name}"
    if kind == "ingest":
        argv = ["ingest"]
        for split in ("train", "valid", "test", "attributes"):
            if split in rel:
                argv += [f"--{split}", rel[split]]
        argv += ["--out", kg]
        out = kg
    elif kind == "train":
        argv = ["train", "--kg", kg, "--model", "distmult", "--dim", str(opts["dim"]),
                "--epochs", str(opts["epochs"]), "--checkpoint-every", str(opts["epochs"]),
                "--negatives", "5", "--batch-size", "512", "--seed", str(seed), "--out", out]
    elif kind.startswith("eval-"):
        argv = ["eval-kbc", "--kg", kg, "--scorer", f"ckpt/{g}/{kind[5:]}.kge", "--split", opts["split"],
                "--per-query", "--out", f"{out}/report.json"]
    elif kind == "mine-rules":
        argv = ["mine-rules", "--kg", kg, "--all-targets", "--max-body", "2", "--min-coverage", "5",
                "--out", f"{out}/rules.txt"]
    elif kind == "apply-rules":
        argv = ["apply-rules", "--kg", kg, "--rules", "out/mine-rules/rules.txt", "--split", opts["split"],
                "--per-query", "--out", f"{out}/report.json"]
    elif kind == "analyze":
        argv = ["analyze", "--kg", kg, "--mode", "both", "--out", f"{out}/profile.json"]
    elif kind == "classify":
        argv = ["classify", "--kg", kg, "--labels", rel["labels"], "--features", "distmult",
                "--dims", opts["dims"], "--epochs", str(opts["epochs"]), "--checkpoint-every", str(opts["every"]),
                "--outer-folds", str(opts["outer"]), "--inner-folds", str(opts["inner"]), "--seed", str(seed),
                "--report", f"{out}/report.json"]
    else:
        raise ValueError(f"unknown stage kind {kind!r}")
    return {"name": name, "kind": kind, "graph": g, "argv": argv, "out": out, "opts": opts}


def build_plan(workload: str, data: dict, seed: int, seconds: float, trace: bool) -> dict:
    """Stage definitions by name, and the order of the stage runs. A traced
    run runs each stage once."""
    spec = WORKLOADS[workload]
    stages = {}
    for kind, g, opts in spec["stages"]:
        name = f"ingest-{g}" if kind == "ingest" else kind
        stages[name] = {**stage_plan(name, kind, g, opts, data[g], seed), "setup": name == f"ingest-{spec['setup']}"}
    order = list(dict.fromkeys(spec["order"])) if trace else list(spec["order"])
    first_eval = next(i for i, name in enumerate(order) if name.startswith("eval-"))
    g = stages[order[first_eval]]["graph"]
    stages["checkpoints"] = {"name": "checkpoints", "kind": "checkpoints", "kg": f"kg/{g}", "dim": 100, "seed": seed,
                             "models": {m: f"ckpt/{g}/{m}.kge" for m in ("complex", "transe")}}
    order.insert(first_eval, "checkpoints")
    return {"src": str(ROOT / "src"), "trace": trace, "seconds": 0 if trace else seconds,
            "stages": stages, "order": order}


# -- checks -----------------------------------------------------------------------


def run_checks(work: Path, plan: dict, result: dict, data: dict, seed: int) -> list:
    out: list = []
    by_name = {r["name"]: r for r in result["stages"]}
    for st in plan["stages"].values():
        if st["name"] not in by_name:
            continue
        rec = by_name[st["name"]]
        out.append((f"{st['name']}.repeatable", len(set(rec["digests"])) == 1,
                    f"{len(set(rec['digests']))} distinct output digests over {len(rec['digests'])} runs"))
        g, kind, opts = st["graph"], st["kind"], st["opts"]
        paths = {k: work / p for k, p in data[g].items()}
        splits = {k: v for k, v in paths.items() if k in ("train", "valid", "test")}
        kg = work / "kg" / g
        stage_out = work / st["out"]
        if kind == "ingest":
            out += checks.check_ingest(splits, paths.get("attributes"), kg)
        elif kind == "train":
            ck = stage_out / f"distmult_d{opts['dim']}_s{seed}_e{opts['epochs']}.kge"
            out += checks.check_train(kg, ck, stage_out / "training.json", "distmult", opts["dim"], opts["epochs"])
        elif kind.startswith("eval-"):
            out += checks.check_eval(kg, work / "ckpt" / g / f"{kind[5:]}.kge", stage_out / "report.json",
                                     opts["split"], EVAL_SAMPLE, seed)
        elif kind == "mine-rules":
            out += checks.check_rules(paths["train"], list(splits.values()), stage_out / "rules.txt",
                                      RULE_SAMPLE, seed)
        elif kind == "apply-rules":
            out += checks.check_rule_eval(kg, work / "out/mine-rules/rules.txt", stage_out / "report.json",
                                          opts["split"], EVAL_SAMPLE, seed)
        elif kind == "analyze":
            out += checks.check_analyze(splits, paths.get("attributes"), stage_out / "profile.json")
        elif kind == "classify":
            out += checks.check_classify(paths["labels"], stage_out / "report.json", opts["outer"])
    return out


# -- metrics ----------------------------------------------------------------------


def end_to_end(plan: dict, result: dict, work: Path, data: dict) -> dict[str, float]:
    med = {r["name"]: statistics.median(r["samples"]) for r in result["stages"]}
    setup = next(s["name"] for s in plan["stages"].values() if s.get("setup"))
    by_kind = {s["kind"]: s for s in plan["stages"].values() if s["kind"] != "ingest"}

    def queries_per_s(kind: str) -> float:
        report = json.loads((work / by_kind[kind]["out"] / "report.json").read_text(encoding="utf-8"))
        return report["n_queries"] / med[kind]

    train = by_kind["train"]
    n_train = len(checks.read_tsv(work / data[train["graph"]]["train"]))
    return {
        "setup_s": med[setup],
        "train_triples_per_s": n_train * train["opts"]["epochs"] / med["train"],
        "complex_eval_queries_per_s": queries_per_s("eval-complex"),
        "transe_eval_queries_per_s": queries_per_s("eval-transe"),
        "rule_eval_queries_per_s": queries_per_s("apply-rules"),
        "mine_s": med["mine-rules"],
        "analyze_s": med["analyze"],
        "classify_s": med["classify"],
        "pipeline_s": sum(med.values()),
        "peak_rss_mb": result["peak_rss_mb"],
    }


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        cpu = next((ln.split(":", 1)[1].strip() for ln in cpuinfo.read_text().splitlines()
                    if ln.startswith("model name")), cpu)
    src_lines = 0
    for p in sorted((ROOT / "src" / "kgbench").glob("*.py")):
        src_lines += sum(1 for ln in p.read_text(encoding="utf-8").splitlines()
                         if ln.strip() and not ln.strip().startswith("#"))
    return {
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}", "blas_threads": BLAS_THREADS,
        "cpu": cpu, "nproc": len(os.sched_getaffinity(0)), "src_lines": src_lines,
    }


# -- main -------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"],
                    help="one workload, or all of them one after another")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0, help="minimum measuring time; spare time adds set-up samples")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        rest = ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        return max(main(["--workload", w, *rest]) for w in WORKLOADS)

    if not (ROOT / "src" / "kgbench" / "__init__.py").is_file():
        print(f"error: program sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    started = time.perf_counter()
    work = ROOT / ".bench_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    graphs = {g for _, g, _ in WORKLOADS[args.workload]["stages"]}
    data = write_inputs(work, graphs, args.seed)
    plan = build_plan(args.workload, data, args.seed, args.seconds, bool(args.trace))
    (work / "plan.json").write_text(json.dumps(plan, indent=1), encoding="utf-8")

    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONHASHSEED": "0"}
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(min(BLAS_THREADS, len(os.sched_getaffinity(0))))
    with (work / "worker.log").open("w", encoding="utf-8") as log:
        try:
            proc = subprocess.run([sys.executable, str(BENCH / "worker.py"), "plan.json", "result.json"],
                                  cwd=work, env=env, stdout=log, stderr=subprocess.STDOUT,
                                  timeout=max(1.0, TIMEOUT_S - (time.perf_counter() - started)))
        except subprocess.TimeoutExpired:
            print("error: workload process timed out", file=sys.stderr)
            return 1
    if proc.returncode != 0 or not (work / "result.json").exists():
        print((work / "worker.log").read_text(encoding="utf-8")[-3000:], file=sys.stderr)
        print(f"error: workload process exited with code {proc.returncode}", file=sys.stderr)
        return 1
    result = json.loads((work / "result.json").read_text(encoding="utf-8"))
    results = [] if result["error"] else run_checks(work, plan, result, data, args.seed)
    runs = sum(len(r["samples"]) for r in result["stages"])
    failed_stages = 1 if result["error"] else 0
    failed_checks = [c for c in results if not c[1]]
    attempted = runs + failed_stages + len(results)
    failed = failed_stages + len(failed_checks)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: {WORKLOADS[args.workload]['why']}")
    for rec in result["stages"]:
        print(f"  stage {rec['name']:<14} median {statistics.median(rec['samples']):9.4f} s  "
              f"(n={len(rec['samples'])})  digest {rec['digests'][0][:16]}")
    for name, _, detail in failed_checks:
        print(f"  FAILED check {name}: {detail}")
    print(f"  checks: {len(results) - len(failed_checks)}/{len(results)} passed; "
          f"failed_share {failed / attempted:.4f} (ratio, {failed} of {attempted} stage runs and checks)")
    env_record = environment()
    print("  environment: " + json.dumps(env_record, sort_keys=True))
    if result["error"]:
        print(result["error"], file=sys.stderr)
        print("error: a stage failed; no result", file=sys.stderr)
        return 1

    if args.trace:
        reports = {s["kind"]: json.loads((work / s["out"] / "report.json").read_text(encoding="utf-8"))
                   for s in plan["stages"].values() if s["kind"] in ("eval-complex", "eval-transe", "apply-rules")}
        train = plan["stages"]["train"]
        training = json.loads((work / train["out"] / "training.json").read_text(encoding="utf-8"))
        rules = checks.parse_rules(work / "out/mine-rules/rules.txt")
        metrics = spans.layer_metrics(result, reports, training["forced_negative_accepts"], len(rules))
    else:
        values = end_to_end(plan, result, work, data)
        metrics = {name: (values[name], unit) for name, unit in END_TO_END}
    for name, (value, unit) in metrics.items():
        print(f"  metric {name:<36} {value:14.6f} {unit}")
    payload = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    summary = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace, "environment": env_record,
        "digests": {r["name"]: r["digests"][0] for r in result["stages"]},
        "samples": {r["name"]: r["samples"] for r in result["stages"]},
        "failed_checks": failed_checks, "failed_share": failed / attempted, "metrics": payload,
    }
    (work / "summary.json").write_text(json.dumps(summary, indent=1), encoding="utf-8")
    print(json.dumps({"correct": not failed_checks, "attempted": attempted, "failed": failed, "metrics": payload}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
