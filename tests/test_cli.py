"""Command-line pipeline: exit codes, manifests, end-to-end runs."""

import json
from pathlib import Path

import pytest

from kgbench.cli import main
from kgbench.embed import EmbeddingModel
from kgbench.kg import load_kg
from conftest import build_equivalence_kg


def write_split_files(kg, directory: Path) -> dict[str, Path]:
    directory.mkdir(parents=True, exist_ok=True)
    paths = {}
    for split in ("train", "valid", "test"):
        triples = kg.triples(split)
        if not triples:
            continue
        path = directory / f"{split}.tsv"
        with path.open("w", encoding="utf-8") as fh:
            for t in triples:
                fh.write(
                    f"{kg.entities.label(t.head)}\t{kg.relations.label(t.relation)}\t{kg.entities.label(t.tail)}\n"
                )
        paths[split] = path
    return paths


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("data")
    kg = build_equivalence_kg()
    paths = write_split_files(kg, root)
    return root, paths


class TestExitCodes:
    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "SUBCOMMAND" in capsys.readouterr().out

    def test_no_subcommand_prints_help(self, capsys):
        assert main([]) == 0

    def test_missing_required_flag_is_usage_error(self, capsys):
        assert main(["eval-kbc"]) == 1
        assert "scorer" in capsys.readouterr().err

    def test_unknown_flag_is_usage_error(self):
        assert main(["ingest", "--bogus"]) == 1

    def test_data_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.tsv"
        bad.write_text("no tabs at all\n", encoding="utf-8")
        assert main(["ingest", "--train", str(bad), "--out", str(tmp_path / "kg")]) == 2


@pytest.fixture(scope="module")
def small_kg(tmp_path_factory):
    """A graph of four train triples and one test triple, with a rule file mined from it."""
    root = tmp_path_factory.mktemp("small")
    (root / "train.tsv").write_text("a\tr1\tb\na\tr2\tb\nc\tr1\td\ne\tr1\tf\n", encoding="utf-8")
    (root / "test.tsv").write_text("c\tr2\td\n", encoding="utf-8")
    kg_dir = root / "kg"
    assert main(["ingest", "--train", str(root / "train.tsv"), "--test", str(root / "test.tsv"),
                 "--out", str(kg_dir)]) == 0
    rules = root / "rules.txt"
    assert main(["mine-rules", "--kg", str(kg_dir), "--target", "r2", "--max-body", "1",
                 "--min-coverage", "1", "--out", str(rules)]) == 0
    return kg_dir, rules


def _subcommand_argv(command: str, kg_dir: Path, rules: Path, out_dir: Path) -> list[str]:
    """Minimal valid argv for `command`; every output lands in `out_dir`."""
    if command == "train":
        return ["train", "--kg", str(kg_dir), "--dim", "2", "--epochs", "1", "--checkpoint-every", "1",
                "--out", str(out_dir)]
    if command == "mine-rules":
        return ["mine-rules", "--kg", str(kg_dir), "--target", "r2", "--max-body", "1",
                "--out", str(out_dir / "rules.txt")]
    scorer_flag = "--rules" if command == "apply-rules" else "--scorer"
    return [command, "--kg", str(kg_dir), scorer_flag, str(rules), "--out", str(out_dir / "report.json")]


class TestInputErrors:
    """Missing or malformed inputs exit 2 with a message naming them."""

    def test_missing_triple_file(self, tmp_path, capsys):
        assert main(["ingest", "--train", str(tmp_path / "missing.tsv"), "--out", str(tmp_path / "kg")]) == 2
        assert "missing.tsv" in capsys.readouterr().err

    def test_triple_file_not_utf8(self, tmp_path, capsys):
        bad = tmp_path / "latin1.tsv"
        bad.write_bytes(b"caf\xe9\tr\tb\n")
        assert main(["ingest", "--train", str(bad), "--out", str(tmp_path / "kg")]) == 2
        assert "utf-8" in capsys.readouterr().err

    def test_attribute_relation_no_triple_uses(self, tmp_path, capsys):
        train = tmp_path / "train.tsv"
        train.write_text("a\tr\tb\n", encoding="utf-8")
        schema = tmp_path / "attributes.txt"
        schema.write_text("r\n# comment\nnosuchrel\n", encoding="utf-8")
        kg_dir = tmp_path / "kg"
        assert main(["ingest", "--train", str(train), "--attributes", str(schema), "--out", str(kg_dir)]) == 2
        err = capsys.readouterr().err
        assert err == f"data error: {schema}:3: attribute relation 'nosuchrel' is used by no triple\n"
        assert not kg_dir.exists()

    def test_missing_graph_directory(self, small_kg, tmp_path, capsys):
        _, rules = small_kg
        argv = ["eval-kbc", "--kg", str(tmp_path / "nowhere"), "--scorer", str(rules), "--out", str(tmp_path / "r.json")]
        assert main(argv) == 2
        assert "nowhere" in capsys.readouterr().err

    def test_non_finite_rule_confidence(self, small_kg, tmp_path, capsys):
        kg_dir, _ = small_kg
        rules = tmp_path / "rules.txt"
        rules.write_text("nan\t3\tr1(X,Y) :- r1(X,Z), r1(Z,Y).\n", encoding="utf-8")
        argv = ["apply-rules", "--kg", str(kg_dir), "--rules", str(rules), "--out", str(tmp_path / "r.json")]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"data error: {rules}:1: confidence 'nan' is not finite\n"

    @pytest.mark.parametrize("command", ["eval-kbc", "apply-rules"])
    @pytest.mark.parametrize("hits", ["1,x", "0,3", "1,-2", "2.5"])
    def test_bad_hits_is_usage_error(self, small_kg, tmp_path, capsys, command, hits):
        kg_dir, rules = small_kg
        assert main(_subcommand_argv(command, kg_dir, rules, tmp_path) + ["--hits", hits]) == 1
        err = capsys.readouterr().err
        assert err == f"error: --hits must be comma-separated integers >= 1, got {hits!r}\n"
        assert not (tmp_path / "report.json").exists()

    def test_missing_config_file(self, small_kg, tmp_path, capsys):
        kg_dir, _ = small_kg
        argv = ["analyze", "--config", str(tmp_path / "nope.cfg"), "--kg", str(kg_dir), "--out", str(tmp_path / "p.json")]
        assert main(argv) == 2
        assert "nope.cfg" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "entities,message",
        [
            ("0\ta\nx\tb\n", "entities.tsv:2: index 'x' is not the integer 1"),
            ("0\ta\n1\tb\n2\ta\n", "entities.tsv:3: label 'a' repeats line 1"),
        ],
        ids=["non-integer-index", "repeated-label"],
    )
    def test_malformed_vocabulary(self, tmp_path, capsys, entities, message):
        train = tmp_path / "train.tsv"
        train.write_text("a\tr\tb\nb\tr\tc\n", encoding="utf-8")
        kg_dir = tmp_path / "kg"
        assert main(["ingest", "--train", str(train), "--out", str(kg_dir)]) == 0
        (kg_dir / "entities.tsv").write_text(entities, encoding="utf-8")
        assert main(["analyze", "--kg", str(kg_dir), "--out", str(tmp_path / "p.json")]) == 2
        assert message in capsys.readouterr().err


class TestClassifyInputErrors:
    """Bad classify inputs exit 2 with a data error, not a traceback."""

    @pytest.mark.parametrize(
        "extra,message",
        [
            (["--folds", "FOLDS"], "folds.tsv:2: fold id 'x' is not an integer"),
            (["--dims", "10,x"], "--dims must be comma-separated integers, got '10,x'"),
            (["--checkpoint-every", "0"], "--checkpoint-every must be at least 1, got 0"),
        ],
        ids=["non-integer-fold", "non-integer-dim", "zero-checkpoint-every"],
    )
    def test_bad_input_exits_2(self, small_kg, tmp_path, capsys, extra, message):
        kg_dir, _ = small_kg
        labels = tmp_path / "labels.tsv"
        labels.write_text("a\tx\nc\ty\ne\tx\n", encoding="utf-8")
        folds = tmp_path / "folds.tsv"
        folds.write_text("a\t0\nc\tx\ne\t1\n", encoding="utf-8")
        report = tmp_path / "out" / "report.json"
        argv = ["classify", "--kg", str(kg_dir), "--labels", str(labels), "--dims", "2", "--epochs", "2",
                "--checkpoint-every", "1", *[str(folds) if a == "FOLDS" else a for a in extra],
                "--report", str(report)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and message in err
        assert not report.exists()


class TestRemovedOptions:
    @pytest.mark.parametrize(
        "command,flag",
        [
            ("train", "--threads"),
            ("mine-rules", "--threads"),
            ("eval-kbc", "--threads"),
            ("eval-kbc", "--seed"),
            ("apply-rules", "--threads"),
            ("apply-rules", "--seed"),
        ],
    )
    def test_removed_flag_is_usage_error_but_config_key_is_ignored(self, small_kg, tmp_path, capsys, command, flag):
        kg_dir, rules = small_kg
        argv = _subcommand_argv(command, kg_dir, rules, tmp_path / "flag")
        assert main(argv + [flag, "2"]) == 1
        assert f"unrecognized arguments: {flag} 2" in capsys.readouterr().err

        cfg = tmp_path / "run.cfg"
        cfg.write_text("threads=2\nseed=2\n", encoding="utf-8")
        out_dir = tmp_path / "config"
        assert main(_subcommand_argv(command, kg_dir, rules, out_dir) + ["--config", str(cfg)]) == 0
        config = json.loads((out_dir / "manifest.json").read_text())["config"]
        assert "threads" not in config
        if command in ("eval-kbc", "apply-rules"):
            assert "seed" not in config
            assert "seed" not in json.loads((out_dir / "report.json").read_text())["metadata"]


class TestCheckpointShape:
    @pytest.mark.parametrize("n_entities,extra_relations", [(50, 0), (2, 0), (6, 1)])
    def test_checkpoint_of_another_shape_is_data_error(self, small_kg, tmp_path, capsys, n_entities, extra_relations):
        kg_dir, _ = small_kg
        kg = load_kg(kg_dir)
        assert kg.n_entities == 6
        ckpt = tmp_path / "model.kge"
        EmbeddingModel.initialize("complex", n_entities, kg.n_relations + extra_relations, 4, seed=0).save(ckpt)
        argv = ["eval-kbc", "--kg", str(kg_dir), "--scorer", str(ckpt), "--out", str(tmp_path / "report.json")]
        assert main(argv) == 2
        assert "checkpoint has" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("cut", [6, 28, 100], ids=["header", "header-end", "planes"])
    def test_truncated_checkpoint_is_data_error(self, small_kg, tmp_path, capsys, cut):
        kg_dir, _ = small_kg
        kg = load_kg(kg_dir)
        ckpt = tmp_path / "model.kge"
        EmbeddingModel.initialize("complex", kg.n_entities, kg.n_relations, 4, seed=0).save(ckpt)
        ckpt.write_bytes(ckpt.read_bytes()[:cut])
        argv = ["eval-kbc", "--kg", str(kg_dir), "--scorer", str(ckpt), "--out", str(tmp_path / "report.json")]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"data error: {ckpt}: truncated checkpoint\n"
        assert not (tmp_path / "report.json").exists()


class TestPipeline:
    def test_full_pipeline_rule_scorer_perfect(self, dataset_dir, tmp_path):
        data_root, paths = dataset_dir
        kg_dir = tmp_path / "kg"
        assert (
            main(
                [
                    "ingest",
                    "--train", str(paths["train"]),
                    "--test", str(paths["test"]),
                    "--out", str(kg_dir),
                ]
            )
            == 0
        )
        rules_path = tmp_path / "rules.tsv"
        assert (
            main(
                [
                    "mine-rules",
                    "--kg", str(kg_dir),
                    "--target", "r2",
                    "--max-body", "2",
                    "--min-coverage", "5",
                    "--out", str(rules_path),
                ]
            )
            == 0
        )
        assert rules_path.read_text().splitlines()[0].startswith("1.0\t1000\tr2(X,Y) :- r1(X,Y).")
        report_path = tmp_path / "eval" / "rules.json"
        assert (
            main(
                [
                    "eval-kbc",
                    "--kg", str(kg_dir),
                    "--scorer", str(rules_path),
                    "--split", "test",
                    "--rank", "expected",
                    "--out", str(report_path),
                ]
            )
            == 0
        )
        payload = json.loads(report_path.read_text())
        assert payload["hits"]["1"] == 1.0
        assert payload["metadata"]["scorer_kind"] == "rules"
        assert payload["metadata"]["candidate_set_size"] == 200

    def test_train_subcommand_and_model_eval(self, dataset_dir, tmp_path):
        data_root, paths = dataset_dir
        kg_dir = tmp_path / "kg"
        main(["ingest", "--train", str(paths["train"]), "--test", str(paths["test"]), "--out", str(kg_dir)])
        ckpt_dir = tmp_path / "ckpts"
        assert (
            main(
                [
                    "train",
                    "--kg", str(kg_dir),
                    "--model", "transe",
                    "--dim", "10",
                    "--epochs", "20",
                    "--checkpoint-every", "20",
                    "--lr", "0.5",
                    "--batch-size", "64",
                    "--negatives", "5",
                    "--seed", "1",
                    "--out", str(ckpt_dir),
                ]
            )
            == 0
        )
        ckpt = ckpt_dir / "transe_d10_s1_e20.kge"
        assert ckpt.exists()
        out = tmp_path / "eval" / "model.json"
        assert (
            main(
                [
                    "eval-kbc",
                    "--kg", str(kg_dir),
                    "--scorer", str(ckpt),
                    "--split", "test",
                    "--out", str(out),
                ]
            )
            == 0
        )
        payload = json.loads(out.read_text())
        assert payload["metadata"]["scorer_kind"] == "embedding"
        assert 0.0 <= payload["mrr"] <= 1.0

    def test_per_query_and_rank_modes(self, dataset_dir, tmp_path):
        data_root, paths = dataset_dir
        kg_dir = tmp_path / "kg"
        main(["ingest", "--train", str(paths["train"]), "--test", str(paths["test"]),
              "--sorted-vocab", "--out", str(kg_dir)])
        rules_path = tmp_path / "rules.tsv"
        main(["mine-rules", "--kg", str(kg_dir), "--target", "r2", "--max-body", "1",
              "--min-coverage", "5", "--out", str(rules_path)])
        out = tmp_path / "perq.json"
        assert (
            main(["eval-kbc", "--kg", str(kg_dir), "--scorer", str(rules_path),
                  "--rank", "optimistic", "--per-query", "--out", str(out)])
            == 0
        )
        payload = json.loads(out.read_text())
        assert payload["rank_mode"] == "optimistic"
        assert len(payload["queries"]) == payload["n_queries"]
        q = payload["queries"][0]
        assert q["optimistic"] <= q["expected"] <= q["pessimistic"]
        # sorted vocab: entity 0 is the lexicographically first label
        ents = (kg_dir / "entities.tsv").read_text().splitlines()
        labels = [l.split("\t")[1] for l in ents]
        assert labels == sorted(labels)

    def test_apply_rules_alias(self, dataset_dir, tmp_path):
        data_root, paths = dataset_dir
        kg_dir = tmp_path / "kg"
        main(["ingest", "--train", str(paths["train"]), "--test", str(paths["test"]), "--out", str(kg_dir)])
        rules_path = tmp_path / "rules.tsv"
        main(["mine-rules", "--kg", str(kg_dir), "--target", "r2", "--max-body", "1",
              "--min-coverage", "5", "--out", str(rules_path)])
        out = tmp_path / "applied.json"
        assert main(["apply-rules", "--kg", str(kg_dir), "--rules", str(rules_path), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["hits"]["1"] == 1.0

    def test_mine_rules_writes_analytics(self, dataset_dir, tmp_path):
        data_root, paths = dataset_dir
        kg_dir = tmp_path / "kg"
        main(["ingest", "--train", str(paths["train"]), "--test", str(paths["test"]), "--out", str(kg_dir)])
        rules_path = tmp_path / "rules.tsv"
        main(["mine-rules", "--kg", str(kg_dir), "--target", "r2", "--max-body", "1",
              "--min-coverage", "5", "--out", str(rules_path)])
        analytics = json.loads((tmp_path / "rules_analytics.json").read_text())
        assert analytics["relations_per_theory_histogram"] == {"1": 1}
        assert "connected_relations_histogram" in analytics
        assert analytics["precision_vs_coverage"] == [[1.0, 1000]]

    def test_train_export_features(self, dataset_dir, tmp_path):
        data_root, paths = dataset_dir
        kg_dir = tmp_path / "kg"
        main(["ingest", "--train", str(paths["train"]), "--out", str(kg_dir)])
        csv_path = tmp_path / "features.csv"
        assert (
            main(
                [
                    "train", "--kg", str(kg_dir), "--model", "complex", "--dim", "5",
                    "--epochs", "0", "--checkpoint-every", "0", "--out", str(tmp_path / "ck"),
                    "--export-features", str(csv_path),
                ]
            )
            == 0
        )
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "entity," + ",".join(f"f{i}" for i in range(10))
        assert len(lines) == 201

    def test_reify_subcommand(self, tmp_path):
        facts = tmp_path / "facts.pl"
        facts.write_text("bond(m1,a1,a2,7).\nfriends(marc,eve)\n", encoding="utf-8")
        out = tmp_path / "triples.tsv"
        assert main(["reify", "--facts", str(facts), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert "bond#0\tbond_1\tm1" in lines
        assert "marc\tfriends\teve" in lines

    def test_analyze_subcommand(self, tmp_path):
        train = tmp_path / "train.tsv"
        train.write_text("a\tr\tb\nb\tr\tc\nc\tr\ta\n", encoding="utf-8")
        kg_dir = tmp_path / "kg"
        main(["ingest", "--train", str(train), "--out", str(kg_dir)])
        out = tmp_path / "profile.json"
        assert main(["analyze", "--kg", str(kg_dir), "--mode", "both", "--table", "--out", str(out)]) == 0
        profile = json.loads(out.read_text())
        assert profile["uninformed"]["n_components"] == 1
        assert profile["meta"]["edge_reduction"] == 0.0
        assert (tmp_path / "profile.txt").exists()

    def test_classify_subcommand(self, tmp_path):
        lines = []
        for i in range(12):
            lines.append(f"a{i}\tr1\thub_a")
            lines.append(f"a{i}\tr2\ta{(i + 1) % 12}")
            lines.append(f"b{i}\tr3\thub_b")
            lines.append(f"b{i}\tr2\tb{(i + 1) % 12}")
        train = tmp_path / "train.tsv"
        train.write_text("\n".join(lines) + "\n", encoding="utf-8")
        labels = tmp_path / "labels.tsv"
        labels.write_text(
            "\n".join([f"a{i}\tpos" for i in range(12)] + [f"b{i}\tneg" for i in range(12)]) + "\n",
            encoding="utf-8",
        )
        kg_dir = tmp_path / "kg"
        main(["ingest", "--train", str(train), "--out", str(kg_dir)])
        report = tmp_path / "diff.json"
        code = main(
            [
                "classify",
                "--kg", str(kg_dir),
                "--labels", str(labels),
                "--features", "transe",
                "--dims", "10",
                "--epochs", "20",
                "--checkpoint-every", "20",
                "--outer-folds", "3",
                "--inner-folds", "2",
                "--seed", "0",
                "--report", str(report),
            ]
        )
        assert code == 0
        payload = json.loads(report.read_text())
        assert "distributional" in payload
        assert "symbolic" in payload
        assert len(payload["accuracy_difference"]["per_fold"]) == 3

    def test_report_subcommand_determinism(self, tmp_path):
        results = {
            "kbc": {
                "FB15-237": {
                    "DistMult": {"hits@1": 0.155, "hits@3": 0.263, "hits@10": 0.419},
                    "ConvE": {"hits@1": 0.327, "hits@3": 0.356, "hits@10": 0.501},
                }
            }
        }
        src = tmp_path / "results.json"
        src.write_text(json.dumps(results), encoding="utf-8")
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert main(["report", "--results", str(src), "--out", str(out1)]) == 0
        assert main(["report", "--results", str(src), "--out", str(out2)]) == 0
        assert (out1 / "report.txt").read_bytes() == (out2 / "report.txt").read_bytes()
        text = (out1 / "report.txt").read_text()
        assert ".155 .263 .419" in text
        assert ".327 .356 .501" in text

    def test_report_schema_violation_exit_2(self, tmp_path):
        src = tmp_path / "results.json"
        src.write_text(json.dumps({"classification": [{"dataset": "only"}]}), encoding="utf-8")
        assert main(["report", "--results", str(src), "--out", str(tmp_path / "out")]) == 2


def _eval_kbc_argv(kg: Path, out: Path) -> list[str]:
    scorer = kg.parent / "model.kge"  # 5 entities and 2 relations, as the stage's graph has
    EmbeddingModel.initialize("transe", 5, 2, 2, seed=0).save(scorer)
    return ["eval-kbc", "--kg", str(kg), "--scorer", str(scorer), "--out", str(out / "report.json")]


def _apply_rules_argv(kg: Path, out: Path) -> list[str]:
    rules = kg.parent / "rules.txt"
    rules.write_text("0.5\t2\ts(X,Y) :- r(X,Y).\n", encoding="utf-8")
    return ["apply-rules", "--kg", str(kg), "--rules", str(rules), "--out", str(out / "report.json")]


class TestManifest:
    def test_digest_changes_iff_input_changes(self, tmp_path):
        train = tmp_path / "train.tsv"
        train.write_text("a\tr\tb\n", encoding="utf-8")
        kg1 = tmp_path / "kg1"
        main(["ingest", "--train", str(train), "--out", str(kg1)])
        m1 = json.loads((kg1 / "manifest.json").read_text())

        kg2 = tmp_path / "kg2"
        main(["ingest", "--train", str(train), "--out", str(kg2)])
        m2 = json.loads((kg2 / "manifest.json").read_text())
        assert m1["inputs"] == m2["inputs"]

        train.write_text("a\tr\tb\nc\tr\td\n", encoding="utf-8")
        kg3 = tmp_path / "kg3"
        main(["ingest", "--train", str(train), "--out", str(kg3)])
        m3 = json.loads((kg3 / "manifest.json").read_text())
        assert m1["inputs"] != m3["inputs"]

    def test_analyze_manifest_hashes_every_split_and_attributes(self, tmp_path):
        paths = {}
        for name, text in [("train", "a\tr\tb\nb\tr\tc\n"), ("valid", "c\tr\td\n"), ("test", "d\ts\te\n")]:
            paths[name] = tmp_path / f"{name}.tsv"
            paths[name].write_text(text, encoding="utf-8")
        attributes = tmp_path / "attributes.txt"
        attributes.write_text("s\n", encoding="utf-8")

        def analyze_inputs(test_text: str) -> dict:
            paths["test"].write_text(test_text, encoding="utf-8")
            kg_dir = tmp_path / "kg"
            ingest = ["ingest", "--out", str(kg_dir), "--attributes", str(attributes)]
            assert main(ingest + [f"--{k}={v}" for k, v in paths.items()]) == 0
            out = tmp_path / "analyze" / "profile.json"
            assert main(["analyze", "--kg", str(kg_dir), "--out", str(out)]) == 0
            inputs = json.loads((out.parent / "manifest.json").read_text())["inputs"]
            return {Path(p).name: digest for p, digest in inputs.items()}

        before = analyze_inputs("d\ts\te\n")
        assert sorted(before) == sorted(
            ["entities.tsv", "relations.tsv", "train.idx", "valid.idx", "test.idx", "attributes.txt"]
        )
        after = analyze_inputs("e\ts\td\n")
        assert after["test.idx"] != before["test.idx"]
        assert {k: v for k, v in after.items() if k != "test.idx"} == {
            k: v for k, v in before.items() if k != "test.idx"
        }

    @staticmethod
    def _stage_inputs(tmp_path: Path, stage_argv, test_text: str) -> dict:
        """Input digests by file name of a stage run on a three-split graph whose test split is `test_text`."""
        paths = {}
        for name, text in [("train", "a\tr\tb\nb\tr\tc\n"), ("valid", "c\tr\td\n"), ("test", test_text)]:
            paths[name] = tmp_path / f"{name}.tsv"
            paths[name].write_text(text, encoding="utf-8")
        kg_dir, out = tmp_path / "kg", tmp_path / "stage"
        assert main(["ingest", "--out", str(kg_dir)] + [f"--{k}={v}" for k, v in paths.items()]) == 0
        assert main(stage_argv(kg_dir, out)) == 0
        inputs = json.loads((out / "manifest.json").read_text())["inputs"]
        return {Path(p).name: digest for p, digest in inputs.items()}

    @pytest.mark.parametrize(
        ("stage_argv", "scorer"),
        [
            (lambda kg, out: ["mine-rules", "--kg", str(kg), "--all-targets", "--max-body", "1",
                              "--out", str(out / "rules.txt")], []),
            (lambda kg, out: ["train", "--kg", str(kg), "--dim", "2", "--epochs", "1", "--checkpoint-every", "1",
                              "--out", str(out)], []),
            (_eval_kbc_argv, ["model.kge"]),
            (_apply_rules_argv, ["rules.txt"]),
        ],
        ids=["mine-rules", "train", "eval-kbc", "apply-rules"],
    )
    def test_stage_manifest_hashes_every_split_and_vocabulary(self, tmp_path, stage_argv, scorer):
        before = self._stage_inputs(tmp_path, stage_argv, "d\ts\te\n")
        assert sorted(before) == sorted(["entities.tsv", "relations.tsv", "train.idx", "valid.idx", "test.idx", *scorer])
        after = self._stage_inputs(tmp_path, stage_argv, "e\ts\td\n")
        assert after["test.idx"] != before["test.idx"]
        assert {k: v for k, v in after.items() if k != "test.idx"} == {
            k: v for k, v in before.items() if k != "test.idx"
        }

    def test_classify_manifest_hashes_the_graph_and_records_every_option(self, tmp_path):
        train = tmp_path / "train.tsv"
        train.write_text("a\tr\tb\nb\tr\tc\nc\tr\ta\na\tcolour\tred\n", encoding="utf-8")
        schema = tmp_path / "attributes.txt"
        schema.write_text("colour\n", encoding="utf-8")
        labels = tmp_path / "labels.tsv"
        labels.write_text("a\tx\nb\ty\nc\tx\n", encoding="utf-8")
        kg_dir, out = tmp_path / "kg", tmp_path / "out"
        assert main(["ingest", "--train", str(train), "--attributes", str(schema), "--out", str(kg_dir)]) == 0
        argv = ["classify", "--kg", str(kg_dir), "--labels", str(labels), "--features", "rules",
                "--outer-folds", "2", "--report", str(out / "report.json")]
        assert main(argv) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert sorted(Path(p).name for p in manifest["inputs"]) == sorted(
            ["labels.tsv", "entities.tsv", "relations.tsv", "train.idx", "valid.idx", "test.idx", "attributes.txt"]
        )
        assert manifest["config"] == {
            "features": "rules", "classifier": "knn", "dims": "10,20,30,50,80,100", "epochs": 100,
            "checkpoint_every": 20, "checkpoint_dir": None, "outer_folds": 2, "inner_folds": 3,
            "no_baseline": False, "label_relation": "has_label", "seed": 0,
        }

    def test_manifest_records_version_and_config(self, tmp_path):
        train = tmp_path / "train.tsv"
        train.write_text("a\tr\tb\n", encoding="utf-8")
        kg_dir = tmp_path / "kg"
        main(["ingest", "--train", str(train), "--out", str(kg_dir)])
        manifest = json.loads((kg_dir / "manifest.json").read_text())
        from kgbench import __version__

        assert manifest["version"] == __version__
        assert manifest["command"] == "ingest"


class TestAnalyzeModes:
    @pytest.fixture
    def kg_dir(self, tmp_path):
        train = tmp_path / "train.tsv"
        train.write_text("a\tr\tb\nb\tr\tc\nc\tr\ta\na\tcolour\tred\nd\tr\ta\n", encoding="utf-8")
        attributes = tmp_path / "attributes.txt"
        attributes.write_text("colour\n", encoding="utf-8")
        kg_dir = tmp_path / "kg"
        assert main(["ingest", "--train", str(train), "--attributes", str(attributes), "--out", str(kg_dir)]) == 0
        return kg_dir

    def test_one_mode_is_its_block_of_both(self, kg_dir, tmp_path):
        profiles = {}
        for mode in ("both", "uninformed", "informed"):
            out = tmp_path / mode / "profile.json"
            assert main(["analyze", "--kg", str(kg_dir), "--mode", mode, "--out", str(out)]) == 0
            profiles[mode] = json.loads(out.read_text())
        for mode in ("uninformed", "informed"):
            assert profiles[mode] == {mode: profiles["both"][mode], "meta": profiles["both"]["meta"]}

    def test_uninformed_mode_never_profiles_the_informed_projection(self, kg_dir, tmp_path, monkeypatch):
        from kgbench import graphs

        profiled = []
        profile_graph = graphs.profile_graph

        def recording(g, mode, *args, **kwargs):
            profiled.append(mode)
            return profile_graph(g, mode, *args, **kwargs)

        monkeypatch.setattr(graphs, "profile_graph", recording)
        out = tmp_path / "profile.json"
        assert main(["analyze", "--kg", str(kg_dir), "--mode", "uninformed", "--out", str(out)]) == 0
        assert profiled == ["uninformed"]

    @pytest.mark.parametrize("mode", ["both", "uninformed", "informed"])
    def test_each_projection_is_built_once(self, kg_dir, tmp_path, monkeypatch, mode):
        from kgbench import kg

        projected = []
        project_graph = kg.project_graph

        def recording(graph, projection):
            projected.append(projection)
            return project_graph(graph, projection)

        monkeypatch.setattr(kg, "project_graph", recording)
        assert main(["analyze", "--kg", str(kg_dir), "--mode", mode, "--out", str(tmp_path / "profile.json")]) == 0
        assert sorted(projected) == ["informed", "uninformed"]


class TestConfigFile:
    def test_config_provides_defaults_flags_override(self, tmp_path):
        train = tmp_path / "train.tsv"
        train.write_text("a\tr1\tb\na\tr2\tb\nc\tr1\td\nc\tr2\td\n", encoding="utf-8")
        kg_dir = tmp_path / "kg"
        main(["ingest", "--train", str(train), "--out", str(kg_dir)])
        cfg = tmp_path / "run.cfg"
        cfg.write_text("min_coverage=2\nmax_body=1\n", encoding="utf-8")
        out = tmp_path / "rules.tsv"
        assert (
            main(
                ["mine-rules", "--config", str(cfg), "--kg", str(kg_dir), "--target", "r2", "--out", str(out)]
            )
            == 0
        )
        assert "r2(X,Y) :- r1(X,Y)." in out.read_text()
        # flag overrides the config value: min coverage 5 kills the rule
        out2 = tmp_path / "rules2.tsv"
        main(
            [
                "mine-rules", "--config", str(cfg), "--kg", str(kg_dir), "--target", "r2",
                "--min-coverage", "5", "--out", str(out2),
            ]
        )
        assert out2.read_text() == ""

    def test_env_var_dataset_root(self, tmp_path, monkeypatch):
        root = tmp_path / "datasets"
        root.mkdir()
        (root / "train.tsv").write_text("a\tr\tb\n", encoding="utf-8")
        monkeypatch.setenv("KGBENCH_DATA", str(root))
        kg_dir = tmp_path / "kg"
        assert main(["ingest", "--train", "train.tsv", "--out", str(kg_dir)]) == 0
