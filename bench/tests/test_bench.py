"""Tests of the benchmark's own code: generator determinism, output checks
that reject corrupted outputs, and self time on a synthetic span tree.

Run from the repository root:  python -m pytest -q bench/tests
"""

from __future__ import annotations

import json
import struct
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import checks  # noqa: E402
import gen  # noqa: E402
import spans  # noqa: E402

TINY_FB = {"entities": 300, "relations": 12, "train": 2_000, "valid": 50, "test": 100}
TINY_SYM = {"items": 120, "labeled": 60, "classes": 4, "base_edges": 80, "composed": 30,
            "attr_share": 0.8, "leaves": 0.05, "valid": 40, "test": 80}


def _read_all(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


# -- generators ------------------------------------------------------------------


def test_fb_generator_is_byte_identical_per_seed(tmp_path):
    gen.write_fb(tmp_path / "a", 7, TINY_FB)
    gen.write_fb(tmp_path / "b", 7, TINY_FB)
    gen.write_fb(tmp_path / "c", 8, TINY_FB)
    assert _read_all(tmp_path / "a") == _read_all(tmp_path / "b")
    assert _read_all(tmp_path / "a") != _read_all(tmp_path / "c")


def test_fb_generator_shape_is_exact(tmp_path):
    paths = gen.write_fb(tmp_path, 3, TINY_FB)
    rows = {split: checks.read_tsv(p) for split, p in paths.items()}
    assert {s: len(r) for s, r in rows.items()} == {s: TINY_FB[s] for s in ("train", "valid", "test")}
    every = [row for r in rows.values() for row in r]
    assert len(set(every)) == len(every)  # splits are disjoint and duplicate-free
    assert len({e for h, _, t in every for e in (h, t)}) == TINY_FB["entities"]
    assert len({r for _, r, _ in every}) == TINY_FB["relations"]


def test_symbolic_generator_is_byte_identical_per_seed(tmp_path):
    gen.write_symbolic(tmp_path / "a", 5, TINY_SYM)
    gen.write_symbolic(tmp_path / "b", 5, TINY_SYM)
    gen.write_symbolic(tmp_path / "c", 6, TINY_SYM)
    assert _read_all(tmp_path / "a") == _read_all(tmp_path / "b")
    assert _read_all(tmp_path / "a") != _read_all(tmp_path / "c")


def test_symbolic_labels_follow_planted_communities():
    g = gen.symbolic_graph(11, gen.SYM_SHAPE)
    classes = dict(g["labels"])
    base = [(h, t) for h, r, t in g["train"].tolist() if r < gen.SYM_BASE and h in classes and t in classes]
    same = sum(classes[h] == classes[t] for h, t in base) / len(base)
    assert same > 0.7  # 1 / 4 would be chance


# -- output checks ---------------------------------------------------------------


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """A tiny run of every stage, in a fresh directory."""
    import os

    from kgbench.cli import run
    from kgbench.embed import EmbeddingModel

    work = tmp_path_factory.mktemp("pipeline")
    paths = gen.write_symbolic(work / "data", 2, TINY_SYM)
    cwd = os.getcwd()
    os.chdir(work)
    try:
        rel = {k: str(p.relative_to(work)) for k, p in paths.items()}
        assert run(["ingest", "--train", rel["train"], "--valid", rel["valid"], "--test", rel["test"],
                    "--attributes", rel["attributes"], "--out", "kg"]) == 0
        n_ent = len(checks.read_vocab(work / "kg/entities.tsv"))
        n_rel = len(checks.read_vocab(work / "kg/relations.tsv"))
        EmbeddingModel.initialize("complex", n_ent, n_rel, 8, 0).save(work / "complex.kge")
        assert run(["train", "--kg", "kg", "--model", "distmult", "--dim", "8", "--epochs", "2",
                    "--checkpoint-every", "2", "--out", "train"]) == 0
        assert run(["eval-kbc", "--kg", "kg", "--scorer", "complex.kge", "--split", "test", "--per-query",
                    "--out", "eval.json"]) == 0
        assert run(["mine-rules", "--kg", "kg", "--all-targets", "--max-body", "2", "--min-coverage", "2",
                    "--out", "rules.txt"]) == 0
        assert run(["apply-rules", "--kg", "kg", "--rules", "rules.txt", "--split", "test", "--per-query",
                    "--out", "apply.json"]) == 0
        assert run(["analyze", "--kg", "kg", "--mode", "both", "--out", "profile.json"]) == 0
        assert run(["classify", "--kg", "kg", "--labels", rel["labels"], "--features", "distmult", "--dims", "4",
                    "--epochs", "2", "--checkpoint-every", "1", "--outer-folds", "3", "--inner-folds", "2",
                    "--report", "classify/report.json"]) == 0
    finally:
        os.chdir(cwd)
    return work, paths


def _ok(results) -> bool:
    return all(ok for _, ok, _ in results)


def _splits(paths):
    return {k: v for k, v in paths.items() if k in ("train", "valid", "test")}


def _edit_json(path: Path, change) -> None:
    data = json.loads(path.read_text(encoding="utf-8"))
    change(data)
    path.write_text(json.dumps(data), encoding="utf-8")


def test_ingest_check_rejects_a_dropped_triple(pipeline, tmp_path):
    work, paths = pipeline
    assert _ok(checks.check_ingest(_splits(paths), paths["attributes"], work / "kg"))
    bad = tmp_path / "kg"
    bad.mkdir()
    for p in (work / "kg").iterdir():
        (bad / p.name).write_bytes(p.read_bytes())
    data = (bad / "test.idx").read_bytes()
    (count,) = struct.unpack_from("<I", data, 4)
    (bad / "test.idx").write_bytes(data[:4] + struct.pack("<I", count - 1) + data[8:-12])
    assert not _ok(checks.check_ingest(_splits(paths), paths["attributes"], bad))


def test_train_check_rejects_a_wrong_epoch_count(pipeline):
    work, _ = pipeline
    ck = work / "train/distmult_d8_s0_e2.kge"
    assert _ok(checks.check_train(work / "kg", ck, work / "train/training.json", "distmult", 8, 2))
    assert not _ok(checks.check_train(work / "kg", ck, work / "train/training.json", "distmult", 8, 3))


@pytest.mark.parametrize("field", ["optimistic", "expected"])
def test_eval_check_rejects_a_changed_rank(pipeline, tmp_path, field):
    work, _ = pipeline
    assert _ok(checks.check_eval(work / "kg", work / "complex.kge", work / "eval.json", "test", 10_000, 0))
    bad = tmp_path / "eval.json"
    bad.write_bytes((work / "eval.json").read_bytes())

    def bump(d):
        d["queries"][3][field] += 1.0

    _edit_json(bad, bump)
    assert not _ok(checks.check_eval(work / "kg", work / "complex.kge", bad, "test", 10_000, 0))


def test_rule_count_check_rejects_a_changed_coverage(pipeline, tmp_path):
    work, paths = pipeline
    rules = work / "rules.txt"
    assert _ok(checks.check_rules(paths["train"], list(_splits(paths).values()), rules, 10_000, 0))
    lines = rules.read_text(encoding="utf-8").splitlines()
    conf, cov, text = lines[0].split("\t")
    lines[0] = "\t".join([conf, str(int(cov) + 1), text])
    bad = tmp_path / "rules.txt"
    bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert not _ok(checks.check_rules(paths["train"], list(_splits(paths).values()), bad, 10_000, 0))


def test_rule_eval_check_rejects_a_changed_rank(pipeline, tmp_path):
    work, _ = pipeline
    args = (work / "kg", work / "rules.txt")
    assert _ok(checks.check_rule_eval(*args, work / "apply.json", "test", 10_000, 0))
    bad = tmp_path / "apply.json"
    bad.write_bytes((work / "apply.json").read_bytes())

    def widen(d):
        q = d["queries"][0]
        q["pessimistic"] += 2.0
        q["expected"] += 1.0

    _edit_json(bad, widen)
    assert not _ok(checks.check_rule_eval(*args, bad, "test", 10_000, 0))


@pytest.mark.parametrize("path", [("informed", "n_edges"), ("uninformed", "n_components"),
                                  ("meta", "edge_reduction")])
def test_analyze_check_rejects_a_changed_count(pipeline, tmp_path, path):
    work, paths = pipeline
    assert _ok(checks.check_analyze(_splits(paths), paths["attributes"], work / "profile.json"))
    bad = tmp_path / "profile.json"
    bad.write_bytes((work / "profile.json").read_bytes())

    def change(d):
        d[path[0]][path[1]] += 1

    _edit_json(bad, change)
    assert not _ok(checks.check_analyze(_splits(paths), paths["attributes"], bad))


@pytest.mark.parametrize("edit", ["fold_sizes", "difference"])
def test_classify_check_rejects_a_changed_report(pipeline, tmp_path, edit):
    work, paths = pipeline
    report = work / "classify/report.json"
    assert _ok(checks.check_classify(paths["labels"], report, 3))
    bad = tmp_path / "report.json"
    bad.write_bytes(report.read_bytes())

    def change(d):
        if edit == "fold_sizes":
            d["symbolic"]["fold_sizes"][0] += 1
        else:
            d["accuracy_difference"]["per_fold"][0] += 0.5

    _edit_json(bad, change)
    assert not _ok(checks.check_classify(paths["labels"], bad, 3))


# -- spans --------------------------------------------------------------------------


def test_self_time_of_a_synthetic_span_tree():
    # root [0, 10] has children a [1, 4] and b [5, 9]; a has child c [2, 3]
    tree = {"starts": [0.0, 1.0, 2.0, 5.0], "ends": [10.0, 4.0, 3.0, 9.0], "parents": [-1, 0, 1, 0]}
    assert spans.self_times(tree) == [3.0, 2.0, 1.0, 4.0]


def test_tracer_records_nested_spans_and_wraps_every_binding():
    import kgbench.classify
    import kgbench.embed
    import kgbench.rules

    tracer = spans.Tracer()

    def inner():
        return 1

    outer_fn = tracer.wrap("outer", lambda: tracer.wrap("inner", inner)() + 1)
    assert outer_fn() == 2 and tracer.names == []  # disabled: nothing recorded
    tracer.enabled = True
    assert outer_fn() == 2
    assert tracer.names == ["outer", "inner"] and tracer.parents == [-1, 0]
    assert all(e >= s for s, e in zip(tracer.starts, tracer.ends))

    modules = [m for n, m in sys.modules.items() if n == "kgbench" or n.startswith("kgbench.")]
    saved = [(m, dict(vars(m))) for m in modules]
    classes = [(c, dict(vars(c))) for c in (kgbench.embed.EmbeddingModel, kgbench.rules.RuleScorer,
                                            kgbench.classify.RuleBasedClassifier)]
    original = kgbench.embed.train
    try:
        spans.install(spans.Tracer())
        assert kgbench.classify.train is kgbench.embed.train is not original
        assert kgbench.classify.mine_rules is kgbench.rules.mine_rules
    finally:
        for m, attrs in saved:
            vars(m).update(attrs)
        for c, attrs in classes:
            for key in ("save", "load", "score_tails", "score_heads", "fit", "predict"):
                if key in attrs:
                    setattr(c, key, attrs[key])
