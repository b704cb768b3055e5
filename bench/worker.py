"""Workload process: runs one stage plan through ``kgbench.cli.run`` in
this process and writes stage wall times, output digests, peak RSS and
(when traced) the recorded spans to a JSON file.

Usage: python worker.py PLAN.json RESULT.json   (cwd = the run's work dir)

The plan is written by run.py: stage definitions by name, and the order
of the stage runs, in which a stage may appear several times. A stage's
output directory is removed before each of its runs so every run does the
same work, and the digest of every run is kept so the caller can check
that they agree.
"""

from __future__ import annotations

import hashlib
import json
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import spans  # noqa: E402

MAX_SETUP_SAMPLES = 9


def digest(directory: Path) -> str:
    """SHA-256 over the relative names and bytes of every file in a directory."""
    h = hashlib.sha256()
    for p in sorted(p for p in Path(directory).rglob("*") if p.is_file()):
        h.update(str(p.relative_to(directory)).encode() + b"\0")
        h.update(p.read_bytes())
    return h.hexdigest()


def make_checkpoints(step: dict) -> None:
    """Untrained checkpoints for the eval stages, built with the program's
    own initializer so their format is the program's."""
    from kgbench.embed import EmbeddingModel

    kg_dir = Path(step["kg"])
    n_ent = sum(1 for _ in (kg_dir / "entities.tsv").open(encoding="utf-8"))
    n_rel = sum(1 for _ in (kg_dir / "relations.tsv").open(encoding="utf-8"))
    for kind, path in step["models"].items():
        EmbeddingModel.initialize(kind, n_ent, n_rel, step["dim"], step["seed"]).save(Path(path))


def run_stage(cli, stage: dict, tracer: spans.Tracer, stage_spans: list) -> tuple[float, str]:
    out = Path(stage["out"])
    shutil.rmtree(out, ignore_errors=True)
    span = tracer.open("cli.run") if tracer.enabled else -1
    t0 = time.perf_counter()
    try:
        code = cli.run(stage["argv"])
    finally:
        elapsed = time.perf_counter() - t0
        if span >= 0:
            tracer.close(span)
            stage_spans.append([span, stage["name"]])
    if code != 0:
        raise RuntimeError(f"{stage['name']}: exit code {code}")
    return elapsed, digest(out)


def main(plan_path: str, result_path: str) -> int:
    plan = json.loads(Path(plan_path).read_text(encoding="utf-8"))
    src = Path(plan["src"]).resolve()
    sys.path.insert(0, str(src))
    import kgbench
    import kgbench.cli as cli

    if Path(kgbench.__file__).resolve().parent != src / "kgbench":
        raise SystemExit(f"kgbench imported from {kgbench.__file__}, not from {src}")
    tracer = spans.Tracer()
    if plan["trace"]:
        spans.install(tracer)
    stage_spans: list = []
    result: dict = {"stages": [], "error": None}
    measured = 0.0
    records = {}
    try:
        for name in plan["order"]:
            stage = plan["stages"][name]
            if stage["kind"] == "checkpoints":
                make_checkpoints(stage)
                continue
            tracer.enabled = plan["trace"]
            try:
                elapsed, dig = run_stage(cli, stage, tracer, stage_spans)
            finally:
                tracer.enabled = False
            if name not in records:
                records[name] = {"name": name, "kind": stage["kind"], "samples": [], "digests": []}
                result["stages"].append(records[name])
            records[name]["samples"].append(elapsed)
            records[name]["digests"].append(dig)
            measured += elapsed
        # spend any measuring time left on more set-up samples
        setup = next(s for s in plan["stages"].values() if s.get("setup"))
        rec = records[setup["name"]]
        while measured < plan["seconds"] and len(rec["samples"]) < MAX_SETUP_SAMPLES:
            elapsed, dig = run_stage(cli, setup, tracer, stage_spans)
            rec["samples"].append(elapsed)
            rec["digests"].append(dig)
            measured += elapsed
    except Exception:  # a failed stage ends the pipeline; the caller reports it
        result["error"] = traceback.format_exc()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if plan["trace"]:
        result["spans"] = tracer.to_dict()
        result["stage_spans"] = stage_spans
        result["span_overhead_s"] = spans.span_overhead_s(tracer)
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
