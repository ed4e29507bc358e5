"""Brute-force enumeration of passing hypergeometric parameters.

Staged filtering (regularity, then big monodromy, then the determinant
criterion with its c-search), parallelized over (d, alpha-shape) chunks,
with a resumable plain-text checkpoint.  Output order is deterministic
and independent of the worker count.
"""

from __future__ import annotations

import itertools
import json
import os
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from .criteria import bm, bm_published, find_c, is_regular
from .params import MAX_D, MAX_N, HgParam, canonical_form, validate


@dataclass(frozen=True)
class SearchSpec:
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

    def __post_init__(self):
        if sum(self.partition) != self.n:
            raise ValueError("partition does not sum to n")
        if self.n > MAX_N:
            raise ValueError(f"n = {self.n} is above the cap {MAX_N}")
        if self.d_max > MAX_D:
            raise ValueError(f"d_max = {self.d_max} is above the cap {MAX_D}")
        if tuple(sorted(self.partition, reverse=True)) != tuple(self.partition):
            raise ValueError("partition must be non-increasing")
        # Published-mode (D) solves on a fixed pivot basis and is not
        # scaling-invariant, so one orbit member cannot stand for the rest.
        if self.dedup_by_scaling and self.published:
            raise ValueError("dedup by scaling needs the strict criteria")

    def fingerprint(self) -> dict:
        """The fields besides the chunk key that change a chunk's results."""
        return {
            "published": self.published,
            "dedup_by_scaling": self.dedup_by_scaling,
            "limit": self.limit,
        }


class CheckpointError(ValueError):
    """A checkpoint that cannot be resumed: a corrupt line, or records
    written under a different search spec."""


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
    """n-subsets of (Z/dZ) minus forbidden with the prescribed sum mod d.
    The last element is determined by the first n-1, so the scan is over
    (n-1)-subsets."""
    allowed = sorted(set(range(d)) - {x % d for x in forbidden})
    if n > len(allowed):
        return
    allowed_set = set(allowed)
    if n == 1:
        last = required_sum % d
        if last in allowed_set:
            yield (last,)
        return
    for head in itertools.combinations(allowed, n - 1):
        last = (required_sum - sum(head)) % d
        if last > head[-1] and last in allowed_set:
            yield head + (last,)


def _candidate_params(d: int, alphas: Tuple[int, ...]) -> Iterator[HgParam]:
    n = len(alphas)
    required = (sum(alphas) - d * (d - 1) // 2) % d
    for betas in enumerate_betas(d, n, required, set(alphas)):
        yield validate(d, alphas, betas)


def _chunk_key(d: int, alphas: Tuple[int, ...]) -> str:
    return f"{d}:{','.join(map(str, alphas))}"


def search_chunk(args) -> Tuple[str, List[dict]]:
    """Worker: all passing parameters for one (d, alpha-shape) chunk."""
    d, alphas, dedup, limit, published = args
    out: List[dict] = []
    for p in _candidate_params(d, alphas):
        if dedup and canonical_form(p) != p:
            continue
        if not is_regular(p):
            continue
        if not (bm_published(p) if published else bm(p)[0]):
            continue
        c = find_c(p, published=published)
        if c is None:
            continue
        out.append({"d": d, "alpha": list(p.alphas), "beta": list(p.betas), "c": list(c)})
        if limit is not None and len(out) >= limit:
            break
    return _chunk_key(d, alphas), out


def _load_checkpoint(path: Optional[str], fingerprint: dict) -> Dict[str, List[dict]]:
    """Chunk results recorded at path.  A last line that does not parse, or
    lacks its newline, is a write cut short: it is dropped, and cut from the
    file so that new records start on a line of their own.  A bad line
    anywhere else, or a record written under another fingerprint, raises
    CheckpointError."""
    done: Dict[str, List[dict]] = {}
    if not (path and os.path.exists(path)):
        return done
    with open(path, "rb") as fh:
        lines = fh.read().splitlines(keepends=True)
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
        done[rec["key"]] = rec["results"]
        good_end += len(line)
    return done


def run_search(spec: SearchSpec) -> List[dict]:
    """All passing parameters in the requested range, globally sorted by
    (d, alpha, beta).  Deterministic regardless of worker count."""
    chunks = []
    for d in range(max(spec.d_min, spec.n + 1), spec.d_max + 1):
        for alphas in enumerate_alphas(d, spec.partition):
            chunks.append((d, alphas, spec.dedup_by_scaling, spec.limit, spec.published))
    fingerprint = spec.fingerprint()
    done = _load_checkpoint(spec.checkpoint, fingerprint)
    todo = [c for c in chunks if _chunk_key(c[0], c[1]) not in done]
    ckpt = open(spec.checkpoint, "a") if spec.checkpoint else None

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
    """Moduli d in range admitting at least one passing parameter."""
    out = []
    for d in range(max(d_min, n + 1), d_max + 1):
        spec = SearchSpec(n=n, partition=partition, d_min=d, d_max=d, workers=workers)
        if run_search(spec):
            out.append(d)
    return out


def find_witness(n: int, partition: Tuple[int, ...], d: int) -> Optional[dict]:
    """First passing parameter for a single modulus, scanning in the
    deterministic enumeration order."""
    for alphas in enumerate_alphas(d, partition):
        key, results = search_chunk((d, alphas, False, 1, True))
        if results:
            return results[0]
    return None
