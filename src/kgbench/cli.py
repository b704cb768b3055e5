"""Command-line entry point: ingest, reify, train, mine-rules, eval-kbc,
apply-rules, analyze, classify, report.

Every run writes a manifest capturing the resolved configuration, tool
version and SHA-256 digests of its input files, so identical manifests
imply identical outputs. Exit codes: 0 success, 1 usage error, 2 data
error, 3 numeric failure. Option precedence: flags > config file
(key=value lines) > built-in defaults. The KGBENCH_DATA environment
variable provides a default root for dataset paths.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import os
import sys
from pathlib import Path

from . import __version__
from .errors import DataError, NumericError, UsageError

# the files of a saved graph that every split-reading stage hashes into its manifest
GRAPH_FILES = ("entities.tsv", "relations.tsv", "train.idx", "valid.idx", "test.idx")


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(f"{self.prog}: {message}")


def _resolve_data_path(p: str) -> Path:
    path = Path(p)
    if path.exists():
        return path
    root = os.environ.get("KGBENCH_DATA")
    if root:
        candidate = Path(root) / p
        if candidate.exists():
            return candidate
    return path


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with path.open("rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def write_manifest(out_dir: Path, command: str, config: dict, inputs: list[Path]) -> Path:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = {
        "command": command,
        "version": __version__,
        "config": {k: (str(v) if isinstance(v, Path) else v) for k, v in sorted(config.items())},
        "inputs": {str(p): _sha256(Path(p)) for p in inputs if Path(p).is_file()},
    }
    path = out_dir / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path


def _load_config_file(argv: list[str]) -> dict:
    """Pre-scan for --config and read key=value pairs (', #' comments ok)."""
    cfg: dict[str, object] = {}
    for i, a in enumerate(argv):
        path: str | None = None
        if a == "--config" and i + 1 < len(argv):
            path = argv[i + 1]
        elif a.startswith("--config="):
            path = a.split("=", 1)[1]
        if path is None:
            continue
        for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise DataError(f"{path}:{lineno}: expected key=value")
            key, val = (s.strip() for s in line.split("=", 1))
            cfg[key.replace("-", "_")] = _coerce(val)
    return cfg


def _coerce(val: str):
    low = val.lower()
    if low in ("true", "false"):
        return low == "true"
    for cast in (int, float):
        try:
            return cast(val)
        except ValueError:
            continue
    return val


def build_parser() -> _Parser:
    parser = _Parser(prog="kgbench", description=__doc__)
    parser.add_argument("--config", help="key=value config file (flags take precedence)")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="key=value config file (flags take precedence)")
    subparsers = parser.add_subparsers(dest="command", metavar="SUBCOMMAND", parser_class=_Parser)

    def sub_parser(name: str, help_text: str):
        return subparsers.add_parser(name, help=help_text, parents=[common])

    p = sub_parser("ingest", "load triple files into a serialized graph directory")
    p.add_argument("--train", help="train split triple file")
    p.add_argument("--valid", help="validation split triple file")
    p.add_argument("--test", help="test split triple file")
    p.add_argument("--attributes", help="attribute schema file, one relation name per line")
    p.add_argument("--sorted-vocab", action="store_true", help="assign indices lexicographically")
    p.add_argument("--out", required=True, help="output graph directory")

    p = sub_parser("reify", "decompose hyperfacts into binary triples")
    p.add_argument("--facts", required=True, help="relation(arg1,...) fact file")
    p.add_argument("--out", required=True, help="output triple TSV")

    p = sub_parser("train", "train an embedding model with checkpoints")
    p.add_argument("--kg", required=True, help="serialized graph directory")
    p.add_argument("--model", choices=("transe", "distmult", "complex"), default="transe")
    p.add_argument("--dim", type=int, default=100)
    p.add_argument("--epochs", type=int, default=100)
    p.add_argument("--checkpoint-every", type=int, default=20)
    p.add_argument("--batch-size", type=int, default=512)
    p.add_argument("--lr", type=float, default=0.01)
    p.add_argument("--negatives", type=int, default=1)
    p.add_argument("--margin", type=float, default=1.0)
    p.add_argument("--reg", type=float, default=1e-4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--export-features", help="also write entity feature CSV to this path")
    p.add_argument("--out", required=True, help="checkpoint output directory")

    p = sub_parser("mine-rules", "mine confidence-scored chain rules")
    p.add_argument("--kg", required=True)
    p.add_argument("--target", help="target relation name (omit with --all-targets)")
    p.add_argument("--all-targets", action="store_true", help="mine a theory per relation")
    p.add_argument("--max-body", type=int, default=3)
    p.add_argument("--min-coverage", type=int, default=5)
    p.add_argument("--min-confidence", type=float, default=0.0)
    p.add_argument("--out", required=True, help="rules output file")

    for name, help_text in (
        ("eval-kbc", "filtered tie-aware ranking evaluation"),
        ("apply-rules", "evaluate a mined rule file (eval-kbc with a rules scorer)"),
    ):
        p = sub_parser(name, help_text)
        p.add_argument("--kg", required=True)
        if name == "apply-rules":
            p.add_argument("--rules", required=True, dest="scorer", help="rules file")
        else:
            p.add_argument("--scorer", required=True, help="model checkpoint or rules file")
        p.add_argument("--split", choices=("train", "valid", "test"), default="test")
        p.add_argument("--rank", choices=("optimistic", "expected", "pessimistic"), default="expected")
        p.add_argument("--hits", default="1,3,10", help="comma-separated K values")
        p.add_argument("--per-query", action="store_true", help="include per-query ranks")
        p.add_argument("--score-known-train", action="store_true", help="rule scorer: train triples score 1.0")
        p.add_argument("--out", required=True, help="report JSON path")

    p = sub_parser("analyze", "graph property profile of the dataset")
    p.add_argument("--kg", required=True)
    p.add_argument("--mode", choices=("informed", "uninformed", "both"), default="both")
    p.add_argument("--node-guard", type=int, default=5000)
    p.add_argument("--table", action="store_true", help="also render a text table")
    p.add_argument("--out", required=True, help="profile JSON path")

    p = sub_parser("classify", "relational classification with nested CV")
    p.add_argument("--kg", required=True)
    p.add_argument("--labels", required=True, help="entity<TAB>class file")
    p.add_argument("--folds", help="entity<TAB>fold file (otherwise assigned)")
    p.add_argument("--features", choices=("transe", "distmult", "complex", "rules"), default="transe")
    p.add_argument("--classifier", choices=("knn",), default="knn")
    p.add_argument("--dims", default="10,20,30,50,80,100", help="embedding dimension grid")
    p.add_argument("--epochs", type=int, default=100)
    p.add_argument("--checkpoint-every", type=int, default=20)
    p.add_argument("--checkpoint-dir", help="checkpoint store (defaults next to report)")
    p.add_argument("--outer-folds", type=int, default=5)
    p.add_argument("--inner-folds", type=int, default=3)
    p.add_argument("--no-baseline", action="store_true", help="skip the symbolic baseline and diff")
    p.add_argument("--label-relation", default="has_label")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--report", required=True, help="output JSON (accuracies and differences)")

    p = sub_parser("report", "render result JSON into tables and CSVs")
    p.add_argument("--results", required=True, help="results JSON file")
    p.add_argument("--out", required=True, help="output directory")

    return parser


# -- subcommand implementations ---------------------------------------------------


def _load_graph(args):
    from .kg import load_kg

    kg_dir = _resolve_data_path(args.kg)
    return kg_dir, load_kg(kg_dir)


def _cmd_ingest(args) -> int:
    from .kg import load_dataset, save_kg

    paths = {
        name: _resolve_data_path(getattr(args, name))
        for name in ("train", "valid", "test", "attributes")
        if getattr(args, name)
    }
    if not any(k in paths for k in ("train", "valid", "test")):
        raise UsageError("ingest: at least one of --train/--valid/--test is required")
    kg = load_dataset(
        train=paths.get("train"),
        valid=paths.get("valid"),
        test=paths.get("test"),
        attributes=paths.get("attributes"),
        sorted_vocab=args.sorted_vocab,
    )
    out = Path(args.out)
    save_kg(kg, out)
    write_manifest(out, "ingest", {"sorted_vocab": args.sorted_vocab, **{k: str(v) for k, v in paths.items()}}, list(paths.values()))
    print(
        f"ingested {kg.n_entities} entities, {kg.n_relations} relations; "
        + ", ".join(f"{s}={len(kg.splits[s])}" for s in ("train", "valid", "test"))
    )
    return 0


def _cmd_reify(args) -> int:
    from .kg import Reifier, parse_hyperfacts

    facts_path = _resolve_data_path(args.facts)
    reifier = Reifier()
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    n = 0
    with facts_path.open(encoding="utf-8") as fh, out.open("w", encoding="utf-8", newline="\n") as dst:
        for fact in parse_hyperfacts(fh, source=str(facts_path)):
            for h, r, t in reifier.reify(fact):
                dst.write(f"{h}\t{r}\t{t}\n")
                n += 1
    write_manifest(out.parent, "reify", {"facts": str(facts_path), "out": str(out)}, [facts_path])
    print(f"wrote {n} triples to {out}")
    return 0


def _cmd_train(args) -> int:
    from .embed import TrainConfig, checkpoint_path, train, write_features_csv

    kg_dir, kg = _load_graph(args)
    cfg = TrainConfig(
        model=args.model,
        dim=args.dim,
        epochs=args.epochs,
        checkpoint_every=args.checkpoint_every,
        batch_size=args.batch_size,
        learning_rate=args.lr,
        negatives_per_positive=args.negatives,
        margin=args.margin,
        regularization=args.reg,
        seed=args.seed,
    )
    out = Path(args.out)
    result = train(kg, cfg, checkpoint_dir=out)
    final = checkpoint_path(out, cfg, cfg.epochs)
    if not final.exists():
        result.model.save(final)
    if args.export_features:
        write_features_csv(
            result.model,
            range(kg.n_entities),
            kg.entities.labels(),
            Path(args.export_features),
        )
    (out / "training.json").write_text(
        json.dumps(
            {
                "epoch_losses": result.epoch_losses,
                "forced_negative_accepts": result.forced_negative_accepts,
                "checkpoints": [str(p) for p in result.checkpoints],
                "final": str(final),
            },
            indent=2,
        )
        + "\n",
        encoding="utf-8",
    )
    write_manifest(out, "train", vars(cfg), [kg_dir / f for f in GRAPH_FILES])
    last = result.epoch_losses[-1] if result.epoch_losses else float("nan")
    print(f"trained {cfg.model} dim={cfg.dim} for {cfg.epochs} epochs; final loss {last:.6f}")
    return 0


def _cmd_mine_rules(args) -> int:
    from .rules import mine_all, mine_rules, save_theories

    kg_dir, kg = _load_graph(args)
    if not args.all_targets and not args.target:
        raise UsageError("mine-rules: --target NAME or --all-targets is required")
    if args.all_targets:
        theories = mine_all(
            kg,
            max_body_len=args.max_body,
            min_coverage=args.min_coverage,
            min_confidence=args.min_confidence,
        )
    else:
        target = kg.relations.id(args.target)
        theories = {target: mine_rules(kg, target, args.max_body, args.min_coverage, args.min_confidence)}
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_theories(theories, out)
    _write_rule_analytics(kg, theories, out)
    n_rules = sum(len(t.rules) for t in theories.values())
    write_manifest(
        out.parent,
        "mine-rules",
        {
            "max_body": args.max_body,
            "min_coverage": args.min_coverage,
            "min_confidence": args.min_confidence,
            "target": args.target or "*",
        },
        [kg_dir / f for f in GRAPH_FILES],
    )
    print(f"mined {n_rules} rules over {len(theories)} theories -> {out}")
    return 0


def _write_rule_analytics(kg, theories: dict, rules_path: Path) -> None:
    """Histogram/scatter data for the rule plots, next to the rule file."""
    from .rules import connected_relations, histogram, theory_analytics

    counts = connected_relations(kg)
    payload: dict = {"connected_relations_histogram": histogram(counts.values())}
    if theories:
        analytics = theory_analytics(theories)
        payload.update(
            relations_per_theory_histogram={str(k): v for k, v in analytics.relations_histogram.items()},
            coverage_bins=analytics.coverage_bins,
            precision_vs_coverage=analytics.precision_vs_coverage,  # (confidence, coverage) tuples are JSON arrays
            train_confidence_vs_coverage=analytics.train_confidence_vs_coverage,
            empty_theories=analytics.empty_theories,
        )
    # streamed: with millions of rules the scatter lists make a JSON text of hundreds of MB
    with rules_path.with_name(rules_path.stem + "_analytics.json").open("w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _sniff_scorer(path: Path, kg, score_known_train: bool):
    from .embed import CKPT_MAGIC, EmbeddingModel
    from .rules import RuleScorer, load_theories

    with path.open("rb") as fh:
        magic = fh.read(4)
    if magic == CKPT_MAGIC:
        model = EmbeddingModel.load(path)
        if (model.n_entities, model.n_relations) != (kg.n_entities, kg.n_relations):
            raise DataError(
                f"{path}: checkpoint has {model.n_entities} entities and {model.n_relations} relations, "
                f"the graph has {kg.n_entities} and {kg.n_relations}"
            )
        return model, "embedding"
    theories = load_theories(path, kg)
    return RuleScorer(theories, kg, score_known_train=score_known_train), "rules"


def _hits_at(text: str) -> tuple[int, ...]:
    """The K values of --hits: comma-separated integers, each at least 1."""
    try:
        hits_at = tuple(int(s) for s in text.split(",") if s.strip())
        if all(k >= 1 for k in hits_at):
            return hits_at
    except ValueError:
        pass
    raise UsageError(f"--hits must be comma-separated integers >= 1, got {text!r}")


def _cmd_eval_kbc(args) -> int:
    from .ranking import evaluate

    hits_at = _hits_at(str(args.hits))
    kg_dir, kg = _load_graph(args)
    scorer_path = _resolve_data_path(args.scorer)
    scorer, scorer_kind = _sniff_scorer(scorer_path, kg, args.score_known_train)
    result = evaluate(scorer, kg, split=args.split, rank_mode=args.rank, hits_at=hits_at)
    payload = result.to_dict(per_query=args.per_query)
    payload["metadata"] = {
        "scorer": str(scorer_path),
        "scorer_kind": scorer_kind,
        "scorer_sha256": _sha256(scorer_path),
        "rank_mode": args.rank,
        "split": args.split,
        "candidate_set_size": kg.n_entities,
    }
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    write_manifest(
        out.parent,
        args.command,
        {"rank": args.rank, "split": args.split, "hits": args.hits},
        [scorer_path, *(kg_dir / f for f in GRAPH_FILES)],
    )
    hits_str = " ".join(f"hits@{k}={result.hits[k]:.4f}" for k in hits_at)
    print(f"{result.n_queries} queries ({args.rank} rank): {hits_str} mrr={result.mrr:.4f}")
    return 0


def _cmd_analyze(args) -> int:
    from .graphs import meta_properties, profile_graph
    from .kg import project_graph
    from .report import render_profile_table

    kg_dir, kg = _load_graph(args)
    modes = ("uninformed", "informed") if args.mode == "both" else (args.mode,)
    projected = {mode: project_graph(kg, mode) for mode in ("uninformed", "informed")}
    full = {mode: profile_graph(projected[mode], mode, args.node_guard).to_dict() for mode in modes}
    full["meta"] = meta_properties(kg, projected["uninformed"], projected["informed"]).to_dict()
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(full, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    if args.table:
        table = render_profile_table(full)
        (out.parent / "profile.txt").write_text(table, encoding="utf-8")
        print(table)
    write_manifest(
        out.parent,
        "analyze",
        {"mode": args.mode, "node_guard": args.node_guard},
        [kg_dir / f for f in (*GRAPH_FILES, "attributes.txt")],
    )
    return 0


def _cmd_classify(args) -> int:
    from .classify import (
        accuracy_difference,
        load_folds,
        load_labels,
        nested_cv,
        symbolic_cv,
    )

    if args.features != "rules":
        try:
            dims = [int(d) for d in str(args.dims).split(",") if d.strip()]
        except ValueError:
            raise DataError(f"--dims must be comma-separated integers, got {args.dims!r}") from None
        if args.checkpoint_every < 1:
            raise DataError(f"--checkpoint-every must be at least 1, got {args.checkpoint_every}")
    kg_dir, kg = _load_graph(args)
    labels_path = _resolve_data_path(args.labels)
    with labels_path.open(encoding="utf-8") as fh:
        labeled = load_labels(fh, kg, source=str(labels_path))
    inputs = [labels_path]
    if args.folds:
        folds_path = _resolve_data_path(args.folds)
        with folds_path.open(encoding="utf-8") as fh:
            load_folds(fh, kg, labeled, source=str(folds_path))
        inputs.append(folds_path)

    report_path = Path(args.report)
    report_path.parent.mkdir(parents=True, exist_ok=True)
    payload: dict = {"features": args.features, "classifier": args.classifier}

    symbolic = None
    if args.features == "rules" or not args.no_baseline:
        symbolic = symbolic_cv(
            kg,
            labeled,
            outer_folds=args.outer_folds,
            seed=args.seed,
            label_relation=args.label_relation,
        )
        payload["symbolic"] = symbolic.to_dict()
    if args.features != "rules":
        ckpt_dir = Path(args.checkpoint_dir) if args.checkpoint_dir else report_path.parent / "checkpoints"
        dist = nested_cv(
            kg,
            labeled,
            model=args.features,
            dims=dims,
            checkpoint_dir=ckpt_dir,
            epochs=args.epochs,
            checkpoint_every=args.checkpoint_every,
            outer_folds=args.outer_folds,
            inner_folds=args.inner_folds,
            seed=args.seed,
            label_relation=args.label_relation,
        )
        payload["distributional"] = dist.to_dict()
        if symbolic is not None:
            payload["accuracy_difference"] = accuracy_difference(dist, symbolic).to_dict()
    report_path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    write_manifest(
        report_path.parent,
        "classify",
        {
            "features": args.features,
            "dims": args.dims,
            "outer_folds": args.outer_folds,
            "inner_folds": args.inner_folds,
            "seed": args.seed,
        },
        inputs,
    )
    summary = []
    if "distributional" in payload:
        summary.append(f"distributional={payload['distributional']['mean']:.4f}")
    if "symbolic" in payload:
        summary.append(f"symbolic={payload['symbolic']['mean']:.4f}")
    if "accuracy_difference" in payload:
        summary.append(f"diff={payload['accuracy_difference']['mean']:+.4f}")
    print("accuracy: " + ", ".join(summary))
    return 0


def _cmd_report(args) -> int:
    from .report import render_report

    results_path = _resolve_data_path(args.results)
    try:
        results = json.loads(results_path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise DataError(f"{results_path}: invalid JSON: {exc}") from None
    out = Path(args.out)
    written = render_report(results, out)
    write_manifest(out, "report", {"results": str(results_path)}, [results_path])
    print("wrote " + ", ".join(str(p) for p in written))
    return 0


_COMMANDS = {
    "ingest": _cmd_ingest,
    "reify": _cmd_reify,
    "train": _cmd_train,
    "mine-rules": _cmd_mine_rules,
    "eval-kbc": _cmd_eval_kbc,
    "apply-rules": _cmd_eval_kbc,
    "analyze": _cmd_analyze,
    "classify": _cmd_classify,
    "report": _cmd_report,
}


def run(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    config = _load_config_file(argv)
    if config:
        parser.set_defaults(**config)
        for action in parser._subparsers._group_actions:  # noqa: SLF001
            for sub in action.choices.values():
                sub.set_defaults(**{k: v for k, v in config.items() if any(a.dest == k for a in sub._actions)})
    args = parser.parse_args(argv)
    if not args.command:
        parser.print_help()
        return 0
    return _COMMANDS[args.command](args)


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    try:
        return run(argv)
    except SystemExit as exc:  # argparse --help
        code = exc.code
        return int(code) if isinstance(code, int) else 0
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (DataError, OSError, UnicodeDecodeError) as exc:  # also a missing, unreadable or non-UTF-8 input
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
