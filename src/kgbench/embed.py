"""Embedding models (TransE, DistMult, ComplEx): scoring, SGD training,
negative sampling, binary checkpoints and feature export.

All arithmetic is 64-bit. Training is plain SGD over mini-batches with
analytic gradients (no autograd), which keeps runs bitwise reproducible
under a fixed seed and makes finite-difference gradient checks tight.
TransE uses margin ranking loss with entity vectors projected onto the
unit ball after each epoch; DistMult and ComplEx use logistic loss with a
per-atom L2 penalty on the vectors involved.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .errors import DataError, NumericError
from .kg import KnowledgeGraph, Triple, _distinct

MODEL_KINDS = ("transe", "distmult", "complex")
_KIND_CODE = {k: i for i, k in enumerate(MODEL_KINDS)}
_PLANES = {"transe": 1, "distmult": 1, "complex": 2}  # ComplEx: real, imaginary
CKPT_MAGIC = b"KGE1"
_HEADER = struct.Struct("<BIIQII")  # kind code, dim, epoch, seed, entities, relations

DIM_GRID = (10, 20, 30, 50, 80, 100)
EPOCH_GRID = (20, 40, 60, 80, 100)


@dataclass
class TrainConfig:
    model: str = "transe"
    dim: int = 100
    epochs: int = 100
    checkpoint_every: int = 20
    batch_size: int = 512
    learning_rate: float = 0.01
    negatives_per_positive: int = 1
    margin: float = 1.0  # TransE only
    regularization: float = 1e-4  # DistMult/ComplEx only
    seed: int = 0

    def __post_init__(self) -> None:
        if self.model not in MODEL_KINDS:
            raise DataError(f"unknown model kind: {self.model!r} (expected one of {MODEL_KINDS})")
        if self.dim < 1:
            raise DataError("dim must be positive")
        if self.epochs < 0:
            raise DataError("epochs must be >= 0")
        if self.epochs and self.checkpoint_every and self.epochs % self.checkpoint_every != 0:
            raise DataError(
                f"checkpoint_every={self.checkpoint_every} must divide epochs={self.epochs}"
            )
        if self.negatives_per_positive < 1:
            raise DataError("negatives_per_positive must be >= 1")


class EmbeddingModel:
    """Per-entity and per-relation vectors plus the scoring function.

    `entity` is a (P, N, d) and `relation` a (P, R, d) float64 table.
    ComplEx has P = 2 planes, plane 0 real and plane 1 imaginary; the other
    models have P = 1.
    """

    def __init__(self, kind: str, entity: np.ndarray, relation: np.ndarray, seed: int = 0, epoch: int = 0) -> None:
        if kind not in MODEL_KINDS:
            raise DataError(f"unknown model kind: {kind!r}")
        if not entity.ndim == relation.ndim == 3 or len(entity) != _PLANES[kind] or len(relation) != _PLANES[kind]:
            raise DataError(f"{kind} model requires {_PLANES[kind]}-plane entity and relation tables")
        self.kind = kind
        self.entity = entity
        self.relation = relation
        self.seed = seed
        self.epoch = epoch

    @classmethod
    def initialize(
        cls, kind: str, n_entities: int, n_relations: int, dim: int, seed: int
    ) -> "EmbeddingModel":
        """Entries i.i.d. uniform in [-6/sqrt(dim), +6/sqrt(dim)], drawn
        plane by plane, the entity plane before the relation plane."""
        rng = np.random.default_rng(seed)
        bound = 6.0 / np.sqrt(dim)
        entity = np.empty((_PLANES[kind], n_entities, dim))
        relation = np.empty((_PLANES[kind], n_relations, dim))
        for e, r in zip(entity, relation):
            e[:] = rng.uniform(-bound, bound, size=e.shape)
            r[:] = rng.uniform(-bound, bound, size=r.shape)
        return cls(kind, entity, relation, seed=seed, epoch=0)

    @property
    def dim(self) -> int:
        return self.entity.shape[2]

    @property
    def n_entities(self) -> int:
        return self.entity.shape[1]

    @property
    def n_relations(self) -> int:
        return self.relation.shape[1]

    def _check(self, t: Triple) -> None:
        if not (0 <= t.head < self.n_entities and 0 <= t.tail < self.n_entities):
            raise DataError(f"entity index out of range in {t}")
        if not 0 <= t.relation < self.n_relations:
            raise DataError(f"relation index out of range in {t}")

    # -- scoring ----------------------------------------------------------

    def score(self, relation: int, head: int, tail: int) -> float:
        """The scalar reference score of one triple."""
        t = Triple(head, relation, tail)
        self._check(t)
        if self.kind == "transe":
            return score_transe(self, t)
        if self.kind == "distmult":
            return score_distmult(self, t)
        return score_complex(self, t)

    def score_tails(self, relation: int, head: int) -> np.ndarray:
        """Scores of (head, relation, e) for every entity e."""
        return self.score_block([relation], [head], "tail")[0]

    def score_heads(self, relation: int, tail: int) -> np.ndarray:
        """Scores of (e, relation, tail) for every entity e."""
        return self.score_block([relation], [tail], "head")[0]

    def score_block(self, relations: np.ndarray, anchors: np.ndarray, side: str) -> np.ndarray:
        """(B, N) scores: row i scores every entity substituted on `side`
        of (anchors[i], relations[i]) -- the tail when side is "tail" (the
        anchors are heads), else the head.

        DistMult and ComplEx fold the anchor and relation vectors into one
        (B, d) weight matrix per plane and take one GEMM per plane, so a row
        groups its terms differently from score() and agrees with it to
        rounding (about 1e-15). TransE takes each row on its own.
        """
        if side not in ("head", "tail"):
            raise DataError(f"unknown corruption side: {side!r}")
        relations = np.asarray(relations, dtype=np.intp)
        anchors = np.asarray(anchors, dtype=np.intp)
        if anchors.size and (anchors.min() < 0 or anchors.max() >= self.n_entities):
            raise DataError("entity index out of range in score block")
        if relations.size and (relations.min() < 0 or relations.max() >= self.n_relations):
            raise DataError("relation index out of range in score block")
        E, R = self.entity, self.relation
        if self.kind == "transe":
            (E,), (R,) = E, R  # one plane each
            out = np.empty((len(anchors), self.n_entities))
            for i, (r, a) in enumerate(zip(relations, anchors)):
                delta = (E[a] + R[r] - E) if side == "tail" else (E + R[r] - E[a])
                out[i] = -np.sqrt((delta * delta).sum(axis=1))
                del delta  # free this row's (N, d) buffer before the next row allocates one
            return out
        if self.kind == "distmult":
            w = [E[0][anchors] * R[0][relations]]
        else:
            (ar, ai), (rr, ri) = E.take(anchors, axis=1), R.take(relations, axis=1)
            if side == "tail":  # anchor is the head h; the candidate is the tail
                w = [ar * rr - ai * ri, ai * rr + ar * ri]
            else:  # anchor is the tail t; the candidate is the head
                w = [ar * rr + ai * ri, ai * rr - ar * ri]
        out = w[0] @ E[0].T
        for wp, plane in zip(w[1:], E[1:]):
            out += wp @ plane.T
        return out

    # -- features ----------------------------------------------------------

    def feature_matrix(self, entities: Sequence[int]) -> np.ndarray:
        """Row per entity: its planes side by side (ComplEx: real, then imaginary)."""
        ids = np.asarray(list(entities), dtype=np.int64)
        if ids.size and (ids.min() < 0 or ids.max() >= self.n_entities):
            raise DataError("unknown entity in feature export")
        return np.concatenate(self.entity[:, ids], axis=1)

    # -- persistence --------------------------------------------------------

    def save(self, path: Path) -> None:
        """KGE1: magic, header, then the entity planes and the relation planes."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("wb") as fh:
            fh.write(CKPT_MAGIC)
            fh.write(
                _HEADER.pack(
                    _KIND_CODE[self.kind],
                    self.dim,
                    self.epoch,
                    self.seed & 0xFFFFFFFFFFFFFFFF,
                    self.n_entities,
                    self.n_relations,
                )
            )
            for table in (self.entity, self.relation):
                fh.write(np.ascontiguousarray(table, dtype="<f8"))  # no copy of a C-ordered float64 table

    @classmethod
    def load(cls, path: Path) -> "EmbeddingModel":
        path = Path(path)
        data = path.read_bytes()
        if data[:4] != CKPT_MAGIC:
            raise DataError(f"{path}: bad magic, not a checkpoint file")
        off = 4 + _HEADER.size
        if len(data) < off:
            raise DataError(f"{path}: truncated checkpoint")
        kind_code, dim, epoch, seed, n_ent, n_rel = _HEADER.unpack_from(data, 4)
        if kind_code >= len(MODEL_KINDS):
            raise DataError(f"{path}: unknown model kind code {kind_code}")
        kind = MODEL_KINDS[kind_code]

        def take(rows: int) -> np.ndarray:
            nonlocal off
            count = _PLANES[kind] * rows * dim
            if off + 8 * count > len(data):
                raise DataError(f"{path}: truncated checkpoint")
            arr = np.frombuffer(data, dtype="<f8", count=count, offset=off)
            off += 8 * count
            return arr.reshape(_PLANES[kind], rows, dim).astype(np.float64)

        entity, relation = take(n_ent), take(n_rel)
        if off != len(data):
            raise DataError(f"{path}: trailing bytes in checkpoint")
        return cls(kind, entity, relation, seed=seed, epoch=epoch)


# -- scoring functions ---------------------------------------------------------


def score_transe(m: EmbeddingModel, t: Triple) -> float:
    """-||e_h + e_r - e_t||_2 ; zero exactly when the translation is exact."""
    m._check(t)
    E, R = m.entity[0], m.relation[0]
    d = E[t.head] + R[t.relation] - E[t.tail]
    return float(-np.sqrt(np.dot(d, d)))


def score_distmult(m: EmbeddingModel, t: Triple) -> float:
    """Sum_i e_h[i] * e_r[i] * e_t[i], grouped (h*t)*r so the score is
    bitwise symmetric under head/tail swap."""
    m._check(t)
    E, R = m.entity[0], m.relation[0]
    return float(((E[t.head] * E[t.tail]) * R[t.relation]).sum())


def score_complex(m: EmbeddingModel, t: Triple) -> float:
    """Real part of sum_i e_r[i] * e_h[i] * conj(e_t[i]).

    Expanded into the four real trilinear terms; with zero imaginary parts
    the first term is computed exactly like the DistMult score.
    """
    m._check(t)
    hr, hi = m.entity[:, t.head]
    rr, ri = m.relation[:, t.relation]
    tr, ti = m.entity[:, t.tail]
    return float(
        ((hr * tr) * rr).sum()
        + ((hi * ti) * rr).sum()
        + ((hr * ti) * ri).sum()
        - ((hi * tr) * ri).sum()
    )


# -- negative sampling -----------------------------------------------------------


_MAX_RETRIES = 100
_WINDOW = 128  # attempts tested per searchsorted in _sample_batch
_LOW = 0xFFFFFFFF


@dataclass
class SamplerStats:
    forced_accepts: int = 0


def sample_negatives(
    kg: KnowledgeGraph,
    t: Sequence[int],
    k: int,
    rng: np.random.Generator,
    stats: SamplerStats | None = None,
) -> list[tuple[int, int, int]]:
    """k corrupted (head, relation, tail) tuples of the triple t, replacing
    head or tail (fair coin) with a uniform entity; known-true candidates
    are rejected and resampled. After _MAX_RETRIES rejections a known-true
    candidate is accepted anyway and the stats counter is incremented."""
    if k < 1:
        raise DataError("negative sample count must be >= 1")
    n, n_rel, known = kg.n_entities, kg.n_relations, kg.sorted_keys()  # holds (head * n_rel + relation) * n + tail
    h, r, tl = t
    out: list[tuple[int, int, int]] = []
    for _ in range(k):
        cand = (h, r, tl)
        accepted = False
        for _attempt in range(_MAX_RETRIES):
            corrupt_head = rng.random() < 0.5
            e = int(rng.integers(0, n))
            cand = (e, r, tl) if corrupt_head else (h, r, e)
            key = (e * n_rel + r) * n + tl if corrupt_head else (h * n_rel + r) * n + e
            i = int(np.searchsorted(known, key))
            if i == len(known) or known[i] != key:
                accepted = True
                break
        if not accepted and stats is not None:
            stats.forced_accepts += 1
        out.append(cand)
    return out


def _decode_attempts(raws: np.ndarray, buffered: int, high: int, n: int) -> tuple[np.ndarray, ...]:
    """The attempts of sample_negatives' loop that the raw PCG64 outputs
    `raws` complete, drawn from a generator whose 32-bit buffer holds
    (`buffered`, `high`): its state's has_uint32 and uinteger.

    An attempt draws rng.random() < 0.5, which takes a fresh 64-bit output
    and is true when its top bit is 0, then rng.integers(0, n), which takes
    a 32-bit half x: the buffered one, or else the low half of a fresh output,
    whose high half it buffers. So two attempts take three outputs. The
    entity is (x * n) >> 32, unless (x * n) mod 2**32 < 2**32 % n: Lemire's
    method then draws another half, which shifts the pattern by one half, so
    the decode starts again after that attempt. rng.integers(0, 1) draws
    nothing.

    Per attempt: corrupt_head, entity, the number of outputs used up to its
    end, and has_uint32 and uinteger after it.
    """
    if n == 1:
        m = len(raws)
        return raws >> 63 == 0, np.zeros(m, np.int64), np.arange(1, m + 1), np.full(m, buffered), np.full(m, high, np.uint64)
    parts, q, thr = [], 0, (1 << 32) % n
    while True:
        rest = raws[q:]
        # with a buffered half, decode as if two outputs came first, the second with that high half
        v = np.concatenate([np.array([0, high << 32], np.uint64), rest]) if buffered else rest
        a = np.arange(buffered, 2 * (len(v) // 3) + 2)
        j, odd = a >> 1, a & 1  # attempt 2j takes the coin v[3j] and half lo(v[3j+1]); 2j+1 takes v[3j+2], hi(v[3j+1])
        keep = 3 * j + 1 + odd < len(v)
        j, odd = j[keep], odd[keep]
        mid = v[3 * j + 1]
        prod = np.where(odd == 1, mid >> 32, mid & _LOW) * np.uint64(n)
        used = q + 3 * j + 2 + odd - 2 * buffered
        heads = v[3 * j + 2 * odd] >> 63 == 0
        rejected = np.flatnonzero((prod & _LOW) < thr)
        m = int(rejected[0]) if len(rejected) else len(j)
        parts.append((heads[:m], (prod[:m] >> 32).astype(np.int64), used[:m], 1 - odd[:m], mid[:m] >> 32))
        if m == len(j):
            break
        # attempt m drew a rejected half: draw halves until one is accepted
        q, buffered, high = int(used[m]), int(1 - odd[m]), int(mid[m]) >> 32
        while True:
            if buffered:
                x, buffered = high, 0
            elif q < len(raws):
                x, high, buffered, q = int(raws[q]) & _LOW, int(raws[q]) >> 32, 1, q + 1
            else:
                return tuple(np.concatenate(c) for c in zip(*parts))
            if (x * n) & _LOW >= thr:
                break
        parts.append(([heads[m]], [(x * n) >> 32], [q], [buffered], np.array([high], np.uint64)))
    return tuple(np.concatenate(c) for c in zip(*parts))


def _sample_batch(
    kg: KnowledgeGraph, batch: np.ndarray, k: int, rng: np.random.Generator, stats: SamplerStats
) -> np.ndarray:
    """sample_negatives(kg, t, k, rng, stats) for each row t of `batch`, as
    one (B, k, 3) array: the same candidates from the same attempts, and the
    PCG64 generator `rng` left in the state the scalar loop leaves it in.

    The attempts are decoded from raw outputs. Slot i is the i-th negative
    of the batch. A window of attempts p, p + 1, ... is tested for slots
    s, s + 1, ... in one searchsorted, up to the first known-true candidate;
    its slot then tries the next attempt, and a new window starts there.
    """
    n, n_rel, known = kg.n_entities, kg.n_relations, kg.sorted_keys()
    slots = np.repeat(batch, k, axis=0)
    h, r, t = slots[:, 0], slots[:, 1], slots[:, 2]
    bg = rng.bit_generator
    start = bg.state
    raws = np.zeros(0, np.uint64)
    heads = np.zeros(0, bool)
    take = np.empty(len(slots), dtype=np.int64)
    s = p = tries = 0
    while s < len(slots):
        w = min(_WINDOW, len(slots) - s)
        while len(heads) < p + w:  # an attempt takes about 1.5 outputs; each extension doubles the draw
            raws = np.concatenate([raws, bg.random_raw(2 * len(slots) + len(raws) + _WINDOW)])
            heads, ents, used, buffered, high = _decode_attempts(raws, start["has_uint32"], start["uinteger"], n)
        e, i = ents[p : p + w], slice(s, s + w)
        key = np.where(heads[p : p + w], (e * n_rel + r[i]) * n + t[i], (h[i] * n_rel + r[i]) * n + e)
        rejected = known[np.minimum(np.searchsorted(known, key), len(known) - 1)] == key
        if tries == _MAX_RETRIES - 1 and rejected[0]:  # slot s accepts its last try anyway
            rejected[0] = False
            stats.forced_accepts += 1
        j = int(rejected.argmax()) if rejected.any() else w
        if j:
            tries = 0
        take[s : s + j] = np.arange(p, p + j)
        s, p = s + j, p + j
        if j < w:  # slot s rejects attempt p
            tries, p = tries + 1, p + 1
    bg.state = start
    bg.random_raw(int(used[p - 1]))
    state = bg.state
    state["has_uint32"], state["uinteger"] = int(buffered[p - 1]), int(high[p - 1])
    bg.state = state
    out, head = slots.copy(), heads[take]
    out[head, 0] = ents[take][head]
    out[~head, 2] = ents[take][~head]
    return out.reshape(len(batch), k, 3)


# -- losses and gradients ----------------------------------------------------------


def _softplus(x: np.ndarray) -> np.ndarray:
    # log(1 + exp(x)) without overflow
    return np.where(x > 0, x + np.log1p(np.exp(-np.abs(x))), np.log1p(np.exp(x)))


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def batch_loss(
    model: EmbeddingModel,
    positives: np.ndarray,
    negatives: np.ndarray,
    cfg: TrainConfig,
) -> float:
    """Training loss of one mini-batch.

    positives: (B, 3) int array of (h, r, t); negatives: (B, K, 3) with K
    corruptions per positive. TransE: mean over the B*K (pos, neg) pairs of
    max(0, margin - psi(pos) + psi(neg)). DistMult/ComplEx: mean over the
    B*(1+K) atoms of log(1 + exp(-y * psi)) + reg * (squared norms of the
    atom's vectors), y = +1 for positives and -1 for corruptions.
    """
    return _loss_terms(model, positives, negatives, cfg, want_grads=False)[0]


def batch_gradients(
    model: EmbeddingModel,
    positives: np.ndarray,
    negatives: np.ndarray,
    cfg: TrainConfig,
) -> tuple[float, dict[str, np.ndarray]]:
    """Loss and dense analytic gradients w.r.t. the entity and relation tables."""
    loss, terms = _loss_terms(model, positives, negatives, cfg, want_grads=True)
    grads = {"entity": np.zeros_like(model.entity), "relation": np.zeros_like(model.relation)}
    for name, index, values in terms:
        for grad, rows in zip(grads[name], values()):
            np.add.at(grad, index, rows)
    return loss, grads


def _flat_atoms(positives: np.ndarray, negatives: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(atoms, labels): positives get +1, each corruption -1."""
    b, k = negatives.shape[0], negatives.shape[1]
    atoms = np.concatenate([positives, negatives.reshape(b * k, 3)], axis=0)
    labels = np.concatenate([np.ones(b), -np.ones(b * k)])
    return atoms, labels


def _loss_terms(
    model: EmbeddingModel,
    positives: np.ndarray,
    negatives: np.ndarray,
    cfg: TrainConfig,
    want_grads: bool,
) -> tuple[float, list[tuple[str, np.ndarray, Callable[[], tuple[np.ndarray, ...]]]]]:
    """The batch loss and, with want_grads, the gradient as terms
    (table name, row indices, gradient rows): the rows are one (m, d) array
    per plane of the table, row i the gradient of that plane's row index[i].
    A table row's gradient is the sum of the rows its terms give at its
    index, taken in term order. Each term computes its rows when called, so
    that one is held at a time."""
    if model.kind == "transe":
        b, k = negatives.shape[0], negatives.shape[1]
        pos_rep = np.repeat(positives, k, axis=0)
        neg = negatives.reshape(b * k, 3)
        n_pairs = len(pos_rep)
        E, R = model.entity[0], model.relation[0]
        dp = E[pos_rep[:, 0]] + R[pos_rep[:, 1]] - E[pos_rep[:, 2]]
        dn = E[neg[:, 0]] + R[neg[:, 1]] - E[neg[:, 2]]
        np_norm = np.sqrt((dp * dp).sum(axis=1))
        nn_norm = np.sqrt((dn * dn).sum(axis=1))
        margins = cfg.margin + np_norm - nn_norm  # = margin - psi(pos) + psi(neg)
        active = margins > 0
        loss = float(np.where(active, margins, 0.0).sum() / n_pairs)
        if not (want_grads and active.any()):
            return loss, []
        # d||d||/dd = d/||d||; guard zero norms (subgradient 0 there)
        up = np.zeros_like(dp)
        un = np.zeros_like(dn)
        nz = np_norm > 0
        up[nz & active] = dp[nz & active] / np_norm[nz & active, None]
        nz = nn_norm > 0
        un[nz & active] = dn[nz & active] / nn_norm[nz & active, None]
        scale = 1.0 / n_pairs
        return loss, [
            ("entity", pos_rep[:, 0], lambda: (scale * up,)),
            ("relation", pos_rep[:, 1], lambda: (scale * up,)),
            ("entity", pos_rep[:, 2], lambda: (-scale * up,)),
            ("entity", neg[:, 0], lambda: (-scale * un,)),
            ("relation", neg[:, 1], lambda: (-scale * un,)),
            ("entity", neg[:, 2], lambda: (scale * un,)),
        ]

    atoms, labels = _flat_atoms(positives, negatives)
    n_atoms = len(atoms)
    h, r, t = atoms[:, 0], atoms[:, 1], atoms[:, 2]
    lam = cfg.regularization
    if model.kind == "distmult":
        E, R = model.entity[0], model.relation[0]
        eh, er, et = E[h], R[r], E[t]
        psi = ((eh * et) * er).sum(axis=1)
        z = -labels * psi
        reg = lam * ((eh * eh).sum(axis=1) + (er * er).sum(axis=1) + (et * et).sum(axis=1))
        loss = float((_softplus(z) + reg).sum() / n_atoms)
        if not want_grads:
            return loss, []
        gpsi = (-labels * _sigmoid(z)) / n_atoms
        return loss, [
            ("entity", h, lambda: (gpsi[:, None] * (er * et) + (2 * lam / n_atoms) * eh,)),
            ("relation", r, lambda: (gpsi[:, None] * (eh * et) + (2 * lam / n_atoms) * er,)),
            ("entity", t, lambda: (gpsi[:, None] * (eh * er) + (2 * lam / n_atoms) * et,)),
        ]

    # complex
    (Er, Ei), (Rr, Ri) = model.entity, model.relation
    hr, hi = Er[h], Ei[h]
    rr, ri = Rr[r], Ri[r]
    tr, ti = Er[t], Ei[t]
    psi = (
        ((hr * tr) * rr).sum(axis=1)
        + ((hi * ti) * rr).sum(axis=1)
        + ((hr * ti) * ri).sum(axis=1)
        - ((hi * tr) * ri).sum(axis=1)
    )
    z = -labels * psi
    sq = lambda a: (a * a).sum(axis=1)  # noqa: E731
    reg = lam * (sq(hr) + sq(hi) + sq(rr) + sq(ri) + sq(tr) + sq(ti))
    loss = float((_softplus(z) + reg).sum() / n_atoms)
    if not want_grads:
        return loss, []
    gpsi = ((-labels * _sigmoid(z)) / n_atoms)[:, None]
    reg2 = 2 * lam / n_atoms
    return loss, [
        ("entity", h, lambda: (gpsi * (rr * tr + ri * ti) + reg2 * hr, gpsi * (rr * ti - ri * tr) + reg2 * hi)),
        ("relation", r, lambda: (gpsi * (hr * tr + hi * ti) + reg2 * rr, gpsi * (hr * ti - hi * tr) + reg2 * ri)),
        ("entity", t, lambda: (gpsi * (rr * hr - ri * hi) + reg2 * tr, gpsi * (rr * hi + ri * hr) + reg2 * ti)),
    ]


_LEVEL_ROWS = 16  # below this many rows, a level costs more than adding its rows one by one


def _add_rows(sums: np.ndarray, slot: np.ndarray, values: Sequence[np.ndarray]) -> None:
    """sums[p][slot[i]] += values[p][i] for each plane p and each i in order:
    bitwise np.add.at(sums[p], slot, values[p]).

    One sort of slot * m + i groups the m occurrences by row, each row's in
    order (a stable argsort costs several times as much), once for all
    planes. Level l adds every row's l-th occurrence in one fancy-indexed +=
    per plane. Once a level holds fewer than _LEVEL_ROWS rows, each row left
    adds its other occurrences with one np.add.accumulate per plane, which
    also adds in order.
    """
    m = len(slot)
    key = np.sort(slot * m + np.arange(m))
    at, grouped = key % m, key // m
    starts = np.flatnonzero(np.diff(grouped, prepend=-1))  # slot >= 0
    counts = np.diff(starts, append=m)
    rank = np.arange(m) - np.repeat(starts, counts)
    by_level = np.argsort(rank)  # a level holds each row at most once, so its order is free
    ends = np.cumsum(np.bincount(rank))
    level = lo = 0
    while level < len(ends) and ends[level] - lo >= _LEVEL_ROWS:
        pos = by_level[lo : ends[level]]
        dst, src = grouped[pos], at[pos]
        for plane, rows in zip(sums, values):
            plane[dst] += rows[src]
        level, lo = level + 1, ends[level]
    many = counts > level
    left = [(grouped[first], at[first + level : first + count]) for first, count in zip(starts[many], counts[many])]
    for plane, rows in zip(sums, values):
        for row, rest in left:
            plane[row] = np.add.accumulate(np.concatenate([plane[row : row + 1], rows[rest]]), axis=0)[-1]


def _sgd_step(
    model: EmbeddingModel, terms: list[tuple[str, np.ndarray, Callable[[], tuple[np.ndarray, ...]]]], lr: float
) -> None:
    """_apply_sgd with the gradient of `terms`, on only the rows they touch.
    Each row's gradient starts from 0.0 and adds its terms' rows in order,
    as batch_gradients' np.add.at calls do, so the update is bitwise the same."""
    for name in dict.fromkeys(name for name, _, _ in terms):
        parts = [(index, values) for n, index, values in terms if n == name]
        index = np.concatenate([index for index, _ in parts])
        rows = _distinct(index)
        slot = np.searchsorted(rows, index)
        table = getattr(model, name)
        sums = np.zeros((len(table), len(rows), table.shape[2]))
        done = 0
        for part, values in parts:
            _add_rows(sums, slot[done : done + len(part)], values())
            done += len(part)
        for plane, plane_sums in zip(table, sums):
            plane[rows] -= lr * plane_sums


# -- training ---------------------------------------------------------------------


@dataclass
class TrainResult:
    model: EmbeddingModel
    epoch_losses: list[float] = field(default_factory=list)
    forced_negative_accepts: int = 0
    checkpoints: list[Path] = field(default_factory=list)


def _project_unit_ball(E: np.ndarray) -> None:
    norms = np.sqrt((E * E).sum(axis=1))
    over = norms > 1.0
    if over.any():
        E[over] /= norms[over, None]


def checkpoint_path(directory: Path, cfg: TrainConfig, epoch: int) -> Path:
    return Path(directory) / f"{cfg.model}_d{cfg.dim}_s{cfg.seed}_e{epoch}.kge"


def train(
    kg: KnowledgeGraph,
    cfg: TrainConfig,
    checkpoint_dir: Path | None = None,
) -> TrainResult:
    """SGD training on the train split; classification labels never enter.

    Checkpoints are written every `checkpoint_every` epochs when a
    directory is given. With epochs=0 the freshly initialized model is
    returned unchanged. Raises NumericError naming epoch and batch if the
    loss goes non-finite.
    """
    arr = kg.rows("train")
    if not len(arr) and cfg.epochs > 0:
        raise DataError("train split is empty")
    model = EmbeddingModel.initialize(cfg.model, kg.n_entities, kg.n_relations, cfg.dim, cfg.seed)
    result = TrainResult(model=model)
    rng = np.random.default_rng(cfg.seed)
    stats = SamplerStats()
    k = cfg.negatives_per_positive

    for epoch in range(1, cfg.epochs + 1):
        order = rng.permutation(len(arr))
        epoch_loss = 0.0
        n_batches = 0
        for bi, start in enumerate(range(0, len(arr), cfg.batch_size)):
            batch = arr[order[start : start + cfg.batch_size]]
            loss, terms = _loss_terms(model, batch, _sample_batch(kg, batch, k, rng, stats), cfg, want_grads=True)
            if not np.isfinite(loss):
                raise NumericError(f"non-finite loss at epoch {epoch}, batch {bi}")
            _sgd_step(model, terms, cfg.learning_rate)
            del terms  # its closures hold the batch's gathered vectors: free them before the next batch
            epoch_loss += loss
            n_batches += 1
        if cfg.model == "transe":
            _project_unit_ball(model.entity[0])
        _check_finite_params(model, epoch)
        model.epoch = epoch
        result.epoch_losses.append(epoch_loss / max(n_batches, 1))
        if checkpoint_dir is not None and cfg.checkpoint_every and epoch % cfg.checkpoint_every == 0:
            path = checkpoint_path(checkpoint_dir, cfg, epoch)
            model.save(path)
            result.checkpoints.append(path)
    result.forced_negative_accepts = stats.forced_accepts
    return result


def _check_finite_params(model: EmbeddingModel, epoch: int) -> None:
    for name, table in (("entity", model.entity), ("relation", model.relation)):
        if not np.isfinite(table).all():
            raise NumericError(f"non-finite {name} entries after epoch {epoch}")


def _apply_sgd(model: EmbeddingModel, grads: dict[str, np.ndarray], lr: float) -> None:
    model.entity -= lr * grads["entity"]
    model.relation -= lr * grads["relation"]


# -- feature export ------------------------------------------------------------------


def write_features_csv(m: EmbeddingModel, entities: Sequence[int], labels: Sequence[str], path: Path) -> None:
    feats = m.feature_matrix(entities)
    width = feats.shape[1]
    with Path(path).open("w", encoding="utf-8", newline="\n") as fh:
        fh.write("entity," + ",".join(f"f{i}" for i in range(width)) + "\n")
        for lab, row in zip(labels, feats):
            fh.write(lab + "," + ",".join(repr(float(x)) for x in row) + "\n")
