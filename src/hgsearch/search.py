"""Brute-force enumeration of passing hypergeometric parameters.

Staged filtering (regularity, then big monodromy, then the determinant
criterion with its c-search), parallelized over (d, alpha-shape) chunks,
with a resumable plain-text checkpoint.  Chunks run to their end and the
answers are read from the merged, sorted results, so none depends on the
candidate order or the worker count.  Dedup by scaling is one pass over
them: it keeps each orbit's least passing member.
"""

from __future__ import annotations

import itertools
import json
import os
from bisect import bisect_right
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Set, Tuple

from .criteria import _first_c, bm, bm_published, is_regular, regular_room
from .params import MAX_D, MAX_N, MAX_WORKERS, HgParam, canonical_form, parse, validate


class _SpecFields(NamedTuple):
    n: int
    partition: Tuple[int, ...]
    d_min: int
    d_max: int
    dedup_by_scaling: bool = False
    workers: int = 1
    limit: Optional[int] = None
    checkpoint: Optional[str] = None
    # published=True mirrors the predicates the published tables reflect
    # (bm_published and basis-solution clause (iv)); published=False uses
    # the criteria exactly as stated.
    published: bool = True


class SearchSpec(_SpecFields):
    """A search's settings, refused unless valid on every path to one: the
    constructor, _make and _replace."""

    __slots__ = ()

    # a NamedTuple may not define __new__ in its own body, hence the subclass
    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if sum(self.partition) != self.n:
            raise ValueError("partition does not sum to n")
        if self.n > MAX_N:
            raise ValueError(f"n = {self.n} is above the cap {MAX_N}")
        if self.d_max > MAX_D:
            raise ValueError(f"d_max = {self.d_max} is above the cap {MAX_D}")
        if not 1 <= self.workers <= MAX_WORKERS:
            raise ValueError(f"workers = {self.workers} is not in 1..{MAX_WORKERS}")
        if self.limit is not None and self.limit < 0:
            raise ValueError(f"limit must be >= 0, got {self.limit}")
        if list(self.partition) != sorted(self.partition, reverse=True) or min(self.partition, default=0) < 1:
            raise ValueError("partition must be non-increasing, with parts at least 1")
        # Published-mode (D) solves on a fixed pivot basis and is not
        # scaling-invariant, so one orbit member cannot stand for the rest.
        if self.dedup_by_scaling and self.published:
            raise ValueError("dedup by scaling needs the strict criteria")
        return self

    # the generated _make, which _replace calls, builds the tuple directly
    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    def fingerprint(self) -> dict:
        """The settings besides the chunk key that change a chunk's results."""
        # every chunk runs to its end; the null limit keeps earlier unlimited records
        return {"published": self.published, "limit": None}


class CheckpointError(ValueError):
    """A checkpoint that cannot be resumed or written: a path that cannot
    be opened, a corrupt line, or records written under a different
    search spec."""


def enumerate_alphas(d: int, partition: Sequence[int]) -> Iterator[Tuple[int, ...]]:
    """Alpha multisets 0^{p1} g2^{p2} ... gr^{pr} with the g's distinct and
    nonzero.  Within a run of equal part sizes the g's are taken increasing,
    so each unordered shape appears once."""
    parts = list(partition)
    r = len(parts)
    if r == 1:
        yield (0,) * parts[0]
        return
    pool = range(1, d)
    for gammas in itertools.permutations(pool, r - 1):
        ok = True
        for i in range(1, r - 1):
            if parts[i] == parts[i + 1] and gammas[i - 1] > gammas[i]:
                ok = False
                break
        if not ok:
            continue
        alphas: List[int] = [0] * parts[0]
        for g, mult in zip(gammas, parts[1:]):
            alphas.extend([g] * mult)
        yield tuple(sorted(alphas))


def enumerate_betas(
    d: int, n: int, required_sum: int, forbidden: Set[int]
) -> Iterator[Tuple[int, ...]]:
    """n-subsets of (Z/dZ) minus forbidden with the prescribed sum mod d, in
    lexicographic order.  Each subset is a head of h = n - n//2 elements
    and a tail of k = n//2.  The tails are filed by sum mod d, so a head
    finds the tails that complete it with one bisection past its last
    element.  Of the m allowed residues, heads come only from the first
    m - k and tails from the last m - h, so the scan is over C(m-k, h)
    heads and C(m-h, k) tails."""
    allowed = sorted(set(range(d)) - {x % d for x in forbidden})
    m, k = len(allowed), n // 2
    h = n - k
    if n > m:
        return
    if k == 0:
        if required_sum % d in allowed:
            yield (required_sum % d,)
        return
    tails: List[List[Tuple[int, ...]]] = [[] for _ in range(d)]
    firsts: List[List[int]] = [[] for _ in range(d)]
    for tail in itertools.combinations(allowed[h:], k):
        r = sum(tail) % d
        tails[r].append(tail)
        firsts[r].append(tail[0])
    for head in itertools.combinations(allowed[: m - k], h):
        r = (required_sum - sum(head)) % d
        for tail in tails[r][bisect_right(firsts[r], head[-1]) :]:
            yield head + tail


def _chunk_key(d: int, alphas: Tuple[int, ...]) -> str:
    return f"{d}:{','.join(map(str, alphas))}"


def search_chunk(args) -> Tuple[str, List[dict]]:
    """Worker: all passing parameters for one (d, alpha-shape) chunk."""
    d, alphas, published = args
    required = (sum(alphas) - d * (d - 1) // 2) % d
    room = regular_room(d, alphas)
    out: List[dict] = []
    for betas in enumerate_betas(d, len(alphas), required, set(alphas)):
        p = validate(d, alphas, betas)
        if not (room[betas[0]] and is_regular(p)):
            continue
        if not (bm_published(p) if published else bm(p)[0]):
            continue
        c = _first_c(p, published)
        if c is None:
            continue
        out.append({"d": d, "alpha": list(p.alphas), "beta": list(p.betas), "c": list(c)})
    return _chunk_key(d, alphas), out


def _is_row_of(key: str, r) -> bool:
    """Whether a checkpoint result row is one search_chunk writes for the
    chunk key: its literal parses, validate included, to the row exactly as
    written, with a c, and its d and alpha give the key."""
    try:
        p = parse(HgParam(r["d"], r["alpha"], r["beta"], r["c"]).literal())
        row = {"d": p.d, "alpha": list(p.alphas), "beta": list(p.betas), "c": list(p.c)}
        return r == row and _chunk_key(p.d, p.alphas) == key
    except (KeyError, TypeError, ValueError):
        return False


def _load_checkpoint(path: Optional[str], fingerprint: dict) -> Dict[str, List[dict]]:
    """Chunk results recorded at path.  A last line that does not parse, or
    lacks its newline, is a write cut short: it is dropped, and cut from the
    file so that new records start on a line of their own.  A bad line
    anywhere else, a record written under another fingerprint, or one with
    a row that is not of its key (see _is_row_of) raises CheckpointError."""
    done: Dict[str, List[dict]] = {}
    if not (path and os.path.exists(path)):
        return done
    try:
        with open(path, "rb") as fh:
            lines = fh.read().splitlines(keepends=True)
    except OSError as exc:
        raise CheckpointError(f"{path}: cannot read: {exc.strerror}") from exc
    last = max((i for i, line in enumerate(lines) if line.strip()), default=-1)
    good_end = 0
    for i, line in enumerate(lines[: last + 1]):
        try:
            rec = json.loads(line)
        except ValueError as exc:
            if i < last:
                raise CheckpointError(f"{path}: line {i + 1} does not parse: {exc}") from exc
            rec = None
        if i == last and (rec is None or not line.endswith(b"\n")):
            os.truncate(path, good_end)
            break
        spec = rec.get("spec") if isinstance(rec, dict) else None
        if spec != fingerprint:
            raise CheckpointError(f"{path}: line {i + 1} was written with {spec}, not {fingerprint}")
        key, rows = rec.get("key"), rec.get("results")
        if not (isinstance(key, str) and isinstance(rows, list) and all(_is_row_of(key, r) for r in rows)):
            raise CheckpointError(f"{path}: line {i + 1} is not a chunk key with a list of result rows")
        done[key] = rows
        good_end += len(line)
    return done


def run_search(spec: SearchSpec) -> List[dict]:
    """All passing parameters in the requested range, globally sorted by
    (d, alpha, beta).  Deterministic regardless of worker count."""
    fingerprint = spec.fingerprint()
    chunks = []
    # validate refuses moduli below 3, which n = 1 would otherwise reach
    for d in range(max(spec.d_min, spec.n + 1, 3), spec.d_max + 1):
        for alphas in enumerate_alphas(d, spec.partition):
            chunks.append((d, alphas, spec.published))
    done = _load_checkpoint(spec.checkpoint, fingerprint)
    todo = [c for c in chunks if _chunk_key(c[0], c[1]) not in done]
    try:
        ckpt = open(spec.checkpoint, "a") if spec.checkpoint else None
    except OSError as exc:
        raise CheckpointError(f"{spec.checkpoint}: cannot open: {exc.strerror}") from exc

    def record(key: str, results: List[dict]) -> None:
        done[key] = results
        if ckpt:
            ckpt.write(json.dumps({"key": key, "spec": fingerprint, "results": results}) + "\n")
            ckpt.flush()

    try:
        if spec.workers > 1 and len(todo) > 1:
            # imported only when a pool runs: loading multiprocessing adds
            # about 0.8 MB (Python 3.11) to a one-worker search's peak memory
            import multiprocessing

            with multiprocessing.Pool(spec.workers) as pool:
                for key, results in pool.imap_unordered(search_chunk, todo):
                    record(key, results)
        else:
            for chunk in todo:
                record(*search_chunk(chunk))
    finally:
        if ckpt:
            ckpt.close()
    merged: List[dict] = []
    for c in chunks:
        merged.extend(done[_chunk_key(c[0], c[1])])
    merged.sort(key=lambda r: (r["d"], tuple(r["alpha"]), tuple(r["beta"])))
    if spec.dedup_by_scaling:
        # an orbit's canonical form is its least member in this order, so
        # the first row of each orbit is its least passing member
        orbits: Dict[HgParam, dict] = {}
        for r in merged:
            orbits.setdefault(canonical_form(validate(r["d"], r["alpha"], r["beta"])), r)
        merged = list(orbits.values())
    if spec.limit is not None:
        merged = merged[: spec.limit]
    return merged


def passing_moduli(
    n: int,
    partition: Tuple[int, ...],
    d_min: int = 3,
    d_max: int = 30,
    workers: int = 1,
) -> List[int]:
    """Moduli d in range admitting at least one passing parameter, from
    one search over the whole range."""
    spec = SearchSpec(n=n, partition=partition, d_min=d_min, d_max=d_max, workers=workers)
    return sorted({r["d"] for r in run_search(spec)})

