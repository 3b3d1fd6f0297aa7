"""Seeded workload inputs, owned by the benchmark.

The generators reproduce the acceptance suites exactly: the criterion-2
round-trip corpus (`random_chain_case` / `make_corpus` in the test helpers)
and the criterion-4 joint draws on the seven-module manipulator.  They are
copied here so that an edit to the tests cannot silently change what the
benchmark measures; `selfcheck.py` compares the two, and a run at the
acceptance seeds compares against the digests pinned below.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np

from chainforge.descriptor import ChainDescriptor, ChainEntry, parse, serialize
from chainforge.geometry import Pose, axis_angle

MID_CODES = ["I", "i", "T", "t", "L", "l", "A"]
TOOL_CODES = ["G", "g", "W", "S"]

CORPUS_SIZE = 500
MANIPULATOR = "I-T'0-T'0-A0-t0-i0-g0"
MANIPULATOR_JOINT_SPAN = (180.0, 120.0, 120.0, 120.0, 180.0)
NOISE_TRIALS = 100

# sha256 of corpus_digest_text / trials_digest_text at the acceptance seeds.
# Both hash only values drawn straight from the generator (strings, joint
# angles, base translations), never results of libm calls, so they do not
# depend on the platform's trigonometry.
ACCEPTANCE_CORPUS_SHA256 = "f8d1631e0ef96be458e30802ec6916f3ca86f5482a923990f2a53e14ca1f2fbb"
ACCEPTANCE_TRIALS_SHA256 = "1dabb663da4c8df375e5dfc7424395e1dc9af267eb6237df60d02dd50c3c8f92"


@dataclass(frozen=True)
class Seeds:
    """Every seed a workload draws from.

    Workloads keep their chains fixed and draw configurations and noise
    from the seeds, so that a seed changes every scene but not the mix of
    chains that sets most of the cost.  The corpus workloads always use the
    chains of the criterion-2 corpus, posed at joint angles and base poses
    drawn from `poses` (None keeps the corpus's own draws).  The noise
    suite draws the manipulator's joint angles from `joints`, and trial k
    synthesizes its markers with seed `markers + k`.
    """

    poses: int | None
    joints: int
    markers: int

    @property
    def is_acceptance(self) -> bool:
        return self == ACCEPTANCE_SEEDS

    @staticmethod
    def from_arg(seed: int | None) -> "Seeds":
        """The acceptance seeds when no seed is given, else seeds derived from it."""
        if seed is None:
            return ACCEPTANCE_SEEDS
        return Seeds(poses=seed, joints=seed, markers=1000 * seed)


CORPUS_SEED = 20260808
ACCEPTANCE_SEEDS = Seeds(poses=None, joints=4242, markers=9000)


@dataclass(frozen=True)
class ChainCase:
    desc: ChainDescriptor
    canonical: str
    thetas: list[float]
    base: Pose


def random_base(rng: np.random.Generator) -> Pose:
    return Pose(
        axis_angle(rng.normal(size=3), float(rng.uniform(0.0, 180.0))),
        rng.uniform(-400.0, 400.0, size=3),
    )


def random_chain_case(rng: np.random.Generator, db) -> ChainCase:
    """Random 2-10 module chain ending in one upright tool, with joint angles.

    Respects the registry's instance counts and the catalog's invertibility
    flags, and pins the unobservable joint angle of an inverted
    perpendicular-joint base module to zero.
    """
    counts = {c: len(db.records_of_type(c)) for c in MID_CODES + TOOL_CODES}
    length = int(rng.integers(2, 11))
    entries: list[ChainEntry] = []
    thetas: list[float] = []

    def pick(codes: list[str]) -> str:
        avail = [c for c in codes if counts[c] > 0]
        code = str(rng.choice(avail))
        counts[code] -= 1
        return code

    for k in range(length):
        if k == length - 1:
            code = pick(TOOL_CODES)
            inverted = False
        else:
            code = pick(MID_CODES)
            inverted = bool(rng.random() < 0.3) and db.types[code].invertible
        angle = None if k == 0 else float(rng.choice([-90.0, 0.0, 90.0, 180.0]))
        entries.append(ChainEntry(code, inverted, angle))
        if db.types[code].is_joint:
            thetas.append(draw_theta(rng, db, k, entries[-1]))
    desc = ChainDescriptor(tuple(entries))
    return ChainCase(desc, serialize(desc), thetas, random_base(rng))


def draw_theta(rng: np.random.Generator, db, position: int, entry: ChainEntry) -> float:
    mt = db.types[entry.type_code]
    if position == 0 and entry.inverted and mt.is_perpendicular_joint:
        return 0.0
    lo, hi = mt.joint_limits
    return float(rng.uniform(lo, hi))


def repose(rng: np.random.Generator, db, case: ChainCase) -> ChainCase:
    """The same chain at fresh joint angles and a fresh base pose."""
    thetas = [
        draw_theta(rng, db, k, entry)
        for k, entry in enumerate(case.desc.entries)
        if db.types[entry.type_code].is_joint
    ]
    return ChainCase(case.desc, case.canonical, thetas, random_base(rng))


def make_corpus(db, poses: int | None) -> list[ChainCase]:
    """The criterion-2 corpus, reposed from the `poses` seed unless it is None."""
    rng = np.random.default_rng(CORPUS_SEED)
    cases = [random_chain_case(rng, db) for _ in range(CORPUS_SIZE)]
    if poses is None:
        return cases
    rng = np.random.default_rng(poses)
    return [repose(rng, db, case) for case in cases]


def manipulator_joint_draws(seed: int, count: int = NOISE_TRIALS) -> list[list[float]]:
    """Joint angles within 70% of each joint's range, as criterion 4 draws them."""
    rng = np.random.default_rng(seed)
    return [
        [float(rng.uniform(-0.7, 0.7) * hi) for hi in MANIPULATOR_JOINT_SPAN]
        for _ in range(count)
    ]


def manipulator():
    return parse(MANIPULATOR)


def corpus_digest_text(cases: list[ChainCase]) -> str:
    return json.dumps(
[[c.canonical, c.thetas, c.base.translation.tolist()] for c in cases])


def trials_digest_text(draws: list[list[float]]) -> str:
    return json.dumps(draws)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
