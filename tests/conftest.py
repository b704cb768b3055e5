"""Shared fixtures: synthetic knowledge graphs used across the suite."""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import settings

from kgbench.kg import KnowledgeGraph

# HYPOTHESIS_PROFILE=ci: the same examples on every run, and a failing one
# printed as a blob that @reproduce_failure replays
settings.register_profile("ci", derandomize=True, print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))

ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def build_equivalence_kg(n_entities: int = 200, n_blocks: int = 10, seed: int = 7) -> KnowledgeGraph:
    """The r2 <=> r1 equivalence dataset.

    Entities form blocks; within each block every "head" connects to every
    "tail" via r1 (all train) and via r2, with the r2 pairs split 80/20
    into train/test. The bipartite block structure is exactly representable
    by a translation model, and the r1 body evidence for held-out r2 pairs
    stays in the train split.
    """
    kg = KnowledgeGraph()
    per = n_entities // n_blocks
    half = per // 2
    pairs = []
    for b in range(n_blocks):
        base = b * per
        for i in range(half):
            for j in range(half):
                pairs.append((f"e{base + i}", f"e{base + half + j}"))
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(pairs))
    test_idx = set(order[: len(pairs) // 5].tolist())
    for h, t in pairs:
        kg.add_triple(h, "r1", t, "train")
    for k, (h, t) in enumerate(pairs):
        kg.add_triple(h, "r2", t, "test" if k in test_idx else "train")
    return kg


def random_kg(
    rng: np.random.Generator,
    n_entities: int,
    n_relations: int,
    n_triples: int,
    split: str = "train",
    kg: KnowledgeGraph | None = None,
) -> KnowledgeGraph:
    if kg is None:
        kg = KnowledgeGraph()
    added = 0
    while added < n_triples:
        h = int(rng.integers(0, n_entities))
        t = int(rng.integers(0, n_entities))
        r = int(rng.integers(0, n_relations))
        before = len(kg.splits[split])
        try:
            kg.add_triple(f"e{h}", f"r{r}", f"e{t}", split)
        except Exception:
            continue  # duplicate across splits: resample
        if len(kg.splits[split]) > before:
            added += 1
    return kg


@pytest.fixture(scope="session")
def equivalence_kg() -> KnowledgeGraph:
    return build_equivalence_kg()
