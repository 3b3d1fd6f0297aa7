"""Check the benchmark's own input generators against the acceptance tests.

    python3 perfbench/selfcheck.py

Passes when, at the acceptance seeds,
- `inputs.make_corpus` gives the same 500 chains (canonical strings, joint
  angles and base poses) as `tests/helpers.make_corpus(db, 500, 20260808)`,
- `inputs.manipulator_joint_draws` gives the same 100 joint draws and the
  same marker seeds as the criterion-4 `noise_trials` fixture, and
- both match the digests pinned in `inputs.py`, which a default-seed run of
  the benchmark checks without needing the tests.
Exit code 0 on success, 1 on a mismatch.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import helpers  # noqa: E402
import test_acceptance  # noqa: E402
from chainforge import default_database  # noqa: E402

import inputs  # noqa: E402


def fixture_function(fixture):
    """The plain function behind a pytest fixture definition."""
    wrapped = getattr(fixture, "__pytest_wrapped__", None)
    return wrapped.obj if wrapped is not None else fixture.__wrapped__


def main() -> int:
    db = default_database()
    seeds = inputs.ACCEPTANCE_SEEDS
    problems = []

    ours = inputs.make_corpus(db, seeds.poses)
    theirs = helpers.make_corpus(db, test_acceptance.CORPUS_SIZE, test_acceptance.CORPUS_SEED)
    if inputs.CORPUS_SEED != test_acceptance.CORPUS_SEED or len(ours) != len(theirs):
        problems.append("corpus seed or size differs from the acceptance suite")
    for k, (case, (desc, canonical, thetas, base)) in enumerate(zip(ours, theirs)):
        if (case.desc, case.canonical, case.thetas) != (desc, canonical, thetas) or not (
            case.base.approx_equal(base, 0.0)
        ):
            problems.append(f"corpus chain {k} differs: {case.canonical} vs {canonical}")
            break

    desc, trials = fixture_function(test_acceptance.noise_trials)(db)
    draws = inputs.manipulator_joint_draws(seeds.joints)
    if inputs.manipulator() != desc:
        problems.append("noise-suite chain differs from the criterion-4 chain")
    if draws != [thetas for thetas, _ in trials]:
        problems.append("joint draws differ from the criterion-4 draws")
    if [seeds.markers + k for k in range(len(draws))] != [seed for _, seed in trials]:
        problems.append("marker seeds differ from the criterion-4 seeds")

    if inputs.sha256(inputs.corpus_digest_text(ours)) != inputs.ACCEPTANCE_CORPUS_SHA256:
        problems.append("corpus digest differs from the pinned one")
    if inputs.sha256(inputs.trials_digest_text(draws)) != inputs.ACCEPTANCE_TRIALS_SHA256:
        problems.append("joint-draw digest differs from the pinned one")

    for problem in problems:
        print(f"FAIL {problem}")
    if not problems:
        print(f"ok: {len(ours)} corpus chains and {len(draws)} joint draws match")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
