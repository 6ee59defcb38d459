"""The benchmark's workloads: inputs made from a seed, ops, and their checks.

An op is one unit of user work (one arrangement verified, one arrangement
classified, one line restricted).  It returns the exact text the CLI would
print for it plus the object the known-answer checks read.  Each op also
carries a reference key: the sha256 of its text must equal the digest that
``record.py`` stored under that key in ``reference.json``.

A workload turns (seed, pass number) into a list of ops.  The runner clears
every arrlog cache before each op whose ``clear`` flag is set, times each op,
and checks it afterwards.  The seed also shuffles the order of a pass, so the
ops of each size are spread over the run and a slow spell of the machine
does not land on all of them.  Ops call arrlog through its module
attributes, so the tracer's wrappers see the calls.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Callable

from arrlog import corpus, criteria, derivation, multiarr
from arrlog.arrangement import Arrangement

CORPUS_SEED = 42      # the ROADMAP reference corpus
CORPUS_SIZE = 100
CORPUS_MAX_LINES = 8
CORPUS_BATCHES = 10   # record.py deals the random corpus into this many
BATCHES_PER_PASS = 2
LADDER = range(8, 13)
LINE_SIZES = (10, 12, 13)
BASE_SEED = 1         # random_arrangement seed of the ladder and line inputs


@dataclass
class Op:
    key: str                       # reference digest key
    run: Callable[[], tuple[str, object]]
    check: Callable[[object], str | None]  # known answer; message on a miss
    clear: bool                    # clear every cache before this op
    group: str = ""                # latency detail per ladder input


def _text(doc) -> str:
    return json.dumps(doc, indent=2)


def _permuted(A: Arrangement, rng: random.Random) -> Arrangement:
    lines = list(A.lines)
    rng.shuffle(lines)
    return Arrangement(tuple(lines), A.name)


# ---------------------------------------------------------------------------
# corpus-verify

def corpus_arrangements() -> list[tuple[str, Arrangement]]:
    """What ``arrlog verify --corpus --random 100 --seed 42`` checks, keyed."""
    out = [(f"fixture/{f.name}", f.build()) for f in corpus.FIXTURES]
    out += [(f"corpus/{A.name}", A) for A in
            corpus.random_corpus(CORPUS_SIZE, CORPUS_MAX_LINES, CORPUS_SEED)]
    return out


def verify_op(key: str, A: Arrangement, fixture, first: bool) -> Op:
    def run():
        report = criteria.verify(A, seed=CORPUS_SEED, external_count=20)
        return _text(report.to_json()), report

    def check(report):
        if not report.ok:
            return "a verify check failed"
        if fixture is not None:
            cls = report.classification
            got = (cls.verdict, cls.exponents, cls.level)
            want = (fixture.verdict, fixture.exponents, fixture.level)
            if got != want:
                return f"classification {got} != {want}"
        return None

    return Op(key, run, check, clear=first)


class CorpusVerify:
    """The six fixtures and balanced batches of the seed-42 random corpus.

    Pass p verifies the fixtures and BATCHES_PER_PASS consecutive batches,
    from batch seed + p * BATCHES_PER_PASS on (mod CORPUS_BATCHES).  Caches
    start empty for each pass and are shared by its ops, as in one CLI batch.
    Two batches make a pass long enough to average the host's short swings
    in speed.
    """

    name = "corpus-verify"

    def __init__(self, seed: int, reference: dict):
        self.seed = seed
        items = corpus_arrangements()
        self.fixtures = items[:len(corpus.FIXTURES)]
        self.random = dict(items[len(corpus.FIXTURES):])
        self.batches = reference["corpus_batches"]

    def ops(self, p: int) -> list[Op]:
        todo = [(k, A, corpus.fixture(k.split("/", 1)[1]))
                for k, A in self.fixtures]
        for b in range(BATCHES_PER_PASS):
            batch = self.batches[(self.seed + p * BATCHES_PER_PASS + b)
                                 % len(self.batches)]
            todo += [(k, self.random[k], None) for k in batch]
        random.Random(f"{self.seed}/{p}").shuffle(todo)
        return [verify_op(k, A, fx, first=(i == 0))
                for i, (k, A, fx) in enumerate(todo)]


# ---------------------------------------------------------------------------
# ladder-classify

def ladder_arrangements() -> list[tuple[str, Arrangement]]:
    out = []
    for n in LADDER:
        out.append((f"ladder/random-{n}-{BASE_SEED}",
                    corpus.random_arrangement(n, BASE_SEED)))
        out.append((f"ladder/near-pencil-{n}", corpus.near_pencil(n)))
    return out


class LadderClassify:
    """``classify`` on random arrangements of 8..12 lines and near-pencils.

    The seed shuffles the lines of every arrangement; the classification must
    not change.  Caches are cleared before every op, as in one ``arrlog
    classify`` process.
    """

    name = "ladder-classify"

    def __init__(self, seed: int, reference: dict):
        self.seed = seed
        self.base = ladder_arrangements()

    def ops(self, p: int) -> list[Op]:
        rng = random.Random(f"{self.seed}/{p}")
        out = []
        for key, A in self.base:
            n = len(A)
            B = _permuted(A, rng)

            def run(B=B):
                cls = derivation.classify(B)
                return _text(cls.to_json()), cls

            def check(cls, n=n, pencil="near-pencil" in key):
                if pencil and (cls.verdict, cls.exponents) != ("free", (1, n - 2)):
                    return f"near-pencil-{n}: {cls.verdict} {cls.exponents}"
                return None

            out.append(Op(key, run, check, clear=True,
                          group=key.split("/", 1)[1]))
        rng.shuffle(out)
        return out


# ---------------------------------------------------------------------------
# line-exponents

def line_arrangements() -> list[tuple[str, Arrangement]]:
    return [(f"line/random-{n}-{BASE_SEED}",
             corpus.random_arrangement(n, BASE_SEED)) for n in LINE_SIZES]


def line_key(prefix: str, A: Arrangement, H: int) -> str:
    return prefix + "/" + ",".join(str(c) for c in A.lines[H].coeffs)


def _line_op(key: str, A: Arrangement, H: int) -> Op:
    n = len(A)

    def run():
        # ``arrlog ziegler --line H --basis``, without the index H, which
        # moves when the lines are shuffled
        M, _ = multiarr.ziegler_restriction(A, H)
        exp = multiarr.exponents(M)
        t1, t2 = multiarr.basis(M)
        entry = {"restriction": M.to_json(), "exponents": list(exp.as_pair()),
                 "basis": [f"({t1.p}, {t1.q})", f"({t2.p}, {t2.q})"],
                 "saito": multiarr.saito_check(t1, t2, M)}
        return _text(entry), entry

    def check(entry):
        e1, e2 = entry["exponents"]
        if e1 + e2 != n - 1:
            return f"exponents {e1}+{e2} != {n - 1}"
        if not entry["saito"]:
            return "Saito certificate failed"
        return None

    return Op(key, run, check, clear=True)


class LineExponents:
    """Restriction exponents and certified basis on every line of random
    10-, 12- and 13-line arrangements.

    The seed shuffles the lines; each line's result must not change.  Caches
    are cleared before every op: each line has its own restriction, so lines
    share no cache entries, and the shuffled order mixes arrangements.
    """

    name = "line-exponents"

    def __init__(self, seed: int, reference: dict):
        self.seed = seed
        self.base = line_arrangements()

    def ops(self, p: int) -> list[Op]:
        rng = random.Random(f"{self.seed}/{p}")
        out = []
        for prefix, A in self.base:
            B = _permuted(A, rng)
            out += [_line_op(line_key(prefix, B, H), B, H)
                    for H in range(len(B))]
        rng.shuffle(out)
        return out


WORKLOADS = {w.name: w for w in (CorpusVerify, LadderClassify, LineExponents)}
