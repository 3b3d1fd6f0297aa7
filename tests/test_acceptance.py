"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with its measured numbers (run with -s to see them)."""

import time
import warnings

import numpy as np
import pytest

from chainforge.descriptor import ChainSyntaxError, parse, serialize
from chainforge.geometry import (
    CONNECTION_ANGLES,
    Pose,
    WeightMatrix,
    axis_angle,
    circular_difference,
    discretize_angle,
    wrap_angle,
)
from chainforge.identify import (
    REASON_UNKNOWN_MARKER,
    IdentifyConfig,
    IdentifyError,
    build_chain,
    build_tree,
    neighbors,
    to_descriptor,
    validate_markers,
)
from chainforge.synth import SceneConfig, synthesize

from helpers import PAPER_CHAINS, make_corpus, make_two_branch_scene, pose_distance, random_base

CORPUS_SEED = 20260808
CORPUS_SIZE = 500


@pytest.fixture(scope="module")
def corpus_scenes(db):
    """The criterion-2 corpus with synthesized zero-noise scenes attached."""
    cases = []
    rng = np.random.default_rng(CORPUS_SEED + 1)
    for desc, canonical, thetas, base in make_corpus(db, CORPUS_SIZE, CORPUS_SEED):
        obs = synthesize(desc, thetas, db, base=base)
        cases.append((desc, canonical, thetas, base, obs))
    del rng
    return cases


@pytest.fixture(scope="module")
def noise_trials(db):
    """Criterion-4 fixed-seed suite on the seven-module manipulator."""
    desc = parse("I-T'0-T'0-A0-t0-i0-g0")
    rng = np.random.default_rng(4242)
    trials = []
    for k in range(100):
        thetas = [
            float(rng.uniform(-0.7, 0.7) * hi)
            for hi in (180.0, 120.0, 120.0, 120.0, 180.0)
        ]
        trials.append((thetas, 9000 + k))
    return desc, trials


def _theta_truth(db, desc, thetas, chain):
    it = iter(thetas)
    truth = {}
    for entry, link in zip(desc.entries, chain.links):
        if db.types[entry.type_code].is_joint:
            truth[link.module.serial] = next(it)
    return truth


def test_criterion_1_paper_experiments(db):
    started = time.perf_counter()
    recovered = []
    for text, thetas, assignment in PAPER_CHAINS:
        obs = synthesize(parse(text), thetas, db, assignment=assignment)
        chain = build_chain(obs, db)
        recovered.append(serialize(to_descriptor(chain)))
    elapsed = time.perf_counter() - started
    expected = [text for text, _, _ in PAPER_CHAINS]
    ok = recovered == expected and elapsed < 1.0
    print(
        f"CRITERION 1 {'PASS' if ok else 'FAIL'}: four experiment chains "
        f"reproduced exactly in {elapsed * 1000:.0f} ms"
    )
    assert recovered == expected
    assert elapsed < 1.0


def test_criterion_2_round_trip_oracle(db):
    cases = make_corpus(db, CORPUS_SIZE, CORPUS_SEED)
    started = time.perf_counter()
    exact = 0
    max_theta_err = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for desc, canonical, thetas, base in cases:
            obs = synthesize(desc, thetas, db, base=base)
            chain = build_chain(obs, db)
            if serialize(to_descriptor(chain)) == canonical:
                exact += 1
            truth = _theta_truth(db, desc, thetas, chain)
            for link in chain.links:
                if link.module.serial in truth:
                    assert link.joint_angle is not None
                    err = abs(wrap_angle(link.joint_angle - truth[link.module.serial]))
                    max_theta_err = max(max_theta_err, err)
    elapsed = time.perf_counter() - started
    ok = exact == CORPUS_SIZE and max_theta_err <= 1e-6 and elapsed < 30.0
    print(
        f"CRITERION 2 {'PASS' if ok else 'FAIL'}: {exact}/{CORPUS_SIZE} exact, "
        f"max joint error {max_theta_err:.2e} deg, {elapsed:.1f} s"
    )
    assert exact == CORPUS_SIZE
    assert max_theta_err <= 1e-6
    assert elapsed < 30.0


def test_criterion_3_method_cross_validation(db, corpus_scenes):
    geo_cfg = IdentifyConfig(method="geometric")
    opt_cfg = IdentifyConfig(method="optimization")
    max_theta_err = 0.0
    solver_thetas = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for desc, canonical, thetas, base, obs in corpus_scenes:
            chain_geo = build_chain(obs, db, geo_cfg)
            chain_opt = build_chain(obs, db, opt_cfg)
            assert [(l.module.serial, l.connection_angle) for l in chain_geo.links] == [
                (l.module.serial, l.connection_angle) for l in chain_opt.links
            ]
            truth = _theta_truth(db, desc, thetas, chain_opt)
            for index, link in enumerate(chain_opt.links):
                if link.solver_theta is not None:
                    solver_thetas += 1
                    err = abs(wrap_angle(link.solver_theta - truth[link.module.serial]))
                    max_theta_err = max(max_theta_err, err)
                if index > 0:
                    parent = chain_opt.links[index - 1].module
                    # Every link below an upright joint parent carries the
                    # parent state the optimizer solved or measured.
                    if (
                        parent.module_type.is_joint
                        and chain_opt.links[index - 1].direction == "upright"
                    ):
                        assert chain_opt.links[index - 1].solver_theta is not None
    ok = max_theta_err <= 1e-3
    print(
        f"CRITERION 3 {'PASS' if ok else 'FAIL'}: methods agree on all "
        f"{len(corpus_scenes)} scenes; {solver_thetas} solved joint states "
        f"within {max_theta_err:.2e} deg of truth"
    )
    assert ok


def test_criterion_4_noise_robustness(db, noise_trials):
    desc, trials = noise_trials
    canonical = serialize(desc)
    exact = 0
    errors = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for thetas, seed in trials:
            cfg = SceneConfig(sigma_pos=2.0, sigma_rot=2.0, seed=seed)
            obs = synthesize(desc, thetas, db, cfg=cfg)
            try:
                chain = build_chain(obs, db)
                got = serialize(to_descriptor(chain))
            except IdentifyError:
                got = None
            if got != canonical:
                continue
            exact += 1
            truth = _theta_truth(db, desc, thetas, chain)
            for link in chain.links:
                if link.module.serial in truth:
                    if link.joint_angle is None:
                        errors.append(float("inf"))
                    else:
                        errors.append(
                            abs(wrap_angle(link.joint_angle - truth[link.module.serial]))
                        )
    errors = np.array(errors)
    within = float((errors <= 5.0).mean())
    ok = exact >= 99 and within >= 0.95
    print(
        f"CRITERION 4 {'PASS' if ok else 'FAIL'}: {exact}/100 exact recoveries "
        f"under 2 mm / 2 deg noise; {within * 100:.1f}% of joints within 5 deg"
    )
    assert exact >= 99
    assert within >= 0.95


@pytest.mark.parametrize("draw", [8, 38])
def test_dropout_roll_ties_resolve_like_geometric(db, noise_trials, draw):
    # With 5% dropout these criterion-4 draws lose the output bundle of an
    # upright collinear joint, so only its roll plus the connection angle is
    # observable and several optimization hypotheses tie; both back ends
    # must absorb the roll into the connection angle the same way.
    desc, trials = noise_trials
    thetas, seed = trials[draw]
    cfg = SceneConfig(sigma_pos=2.0, sigma_rot=2.0, dropout_prob=0.05, seed=seed)
    obs = synthesize(desc, thetas, db, cfg=cfg)
    links = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for method in ("geometric", "optimization"):
            chain = build_chain(obs, db, IdentifyConfig(method=method))
            links.append([(l.module.serial, l.connection_angle, l.direction) for l in chain.links])
    assert links[1] == links[0]


def test_criterion_5_false_positive_elimination(db, noise_trials):
    desc, trials = noise_trials
    mismatches = 0
    spurious_ok = True
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for thetas, seed in trials:
            clean_cfg = SceneConfig(sigma_pos=2.0, sigma_rot=2.0, seed=seed)
            spur_cfg = SceneConfig(
                sigma_pos=2.0, sigma_rot=2.0, spurious_count=3, seed=seed
            )
            try:
                clean = build_chain(synthesize(desc, thetas, db, cfg=clean_cfg), db)
                clean_out = [
                    (l.module.serial, l.connection_angle, l.direction)
                    for l in clean.links
                ]
            except IdentifyError:
                clean_out = None
            obs = synthesize(desc, thetas, db, cfg=spur_cfg)
            try:
                spur = build_chain(obs, db)
                spur_out = [
                    (l.module.serial, l.connection_angle, l.direction)
                    for l in spur.links
                ]
            except IdentifyError:
                spur_out = None
            if clean_out != spur_out:
                mismatches += 1
                continue
            spurious_ids = {o.marker_id for o in obs if db.lookup_marker(o.marker_id) is None}
            rejected_unknown = {
                m for m, r in spur.rejected_markers if r == REASON_UNKNOWN_MARKER
            }
            if spurious_ids != rejected_unknown or len(spurious_ids) != 3:
                spurious_ok = False
    ok = mismatches == 0 and spurious_ok
    print(
        f"CRITERION 5 {'PASS' if ok else 'FAIL'}: spurious markers never changed "
        f"a chain ({mismatches} mismatches) and were all rejected as UnknownMarker"
    )
    assert mismatches == 0
    assert spurious_ok


def test_criterion_6_micro_oracles():
    for raw in np.arange(-179.9, 180.1, 0.1):
        raw = round(float(raw), 4)
        oracle = min(
            CONNECTION_ANGLES,
            key=lambda c: (circular_difference(raw, c), abs(c), -c),
        )
        assert discretize_angle(raw) == oracle, raw
    rng = np.random.default_rng(606)
    w = WeightMatrix()
    checked = 0
    for _ in range(10_000):
        a = Pose(
            axis_angle(rng.normal(size=3), float(rng.uniform(0, 180))),
            rng.uniform(-500, 500, 3),
        )
        b = Pose(
            axis_angle(rng.normal(size=3), float(rng.uniform(0, 180))),
            rng.uniform(-500, 500, 3),
        )
        assert pose_distance(a, a, w) == 0.0
        d_ab = pose_distance(a, b, w)
        assert d_ab >= 0.0
        assert d_ab == pytest.approx(pose_distance(b, a, w))
        checked += 1
    print(
        f"CRITERION 6 PASS: discretization matches the brute-force oracle on a "
        f"0.1 deg grid; metric identity/symmetry/positivity held on {checked} pairs"
    )


def test_criterion_7_parser_totality(db):
    from helpers import MID_CODES, TOOL_CODES
    from chainforge.descriptor import ChainDescriptor, ChainEntry

    rng = np.random.default_rng(707)
    for _ in range(10_000):
        length = int(rng.integers(1, 12))
        entries = []
        for k in range(length):
            pool = (MID_CODES + TOOL_CODES) if k in (0, length - 1) else MID_CODES
            entries.append(
                ChainEntry(
                    str(rng.choice(pool)),
                    bool(rng.random() < 0.5),
                    None if k == 0 else float(rng.choice(CONNECTION_ANGLES)),
                )
            )
        d = ChainDescriptor(tuple(entries))
        assert parse(serialize(d)) == d
    survived = 0
    for _ in range(10_000):
        text = bytes(rng.integers(32, 127, size=32)).decode("ascii")
        try:
            parse(text)
        except ChainSyntaxError as exc:
            assert 0 <= exc.position <= len(text)
            survived += 1
    print(
        "CRITERION 7 PASS: 10k descriptor round-trips exact; 10k random strings "
        f"all parsed or raised positioned errors ({survived} rejected)"
    )


def test_criterion_8_tree_special_case(db, corpus_scenes):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for desc, canonical, thetas, base, obs in corpus_scenes:
            branches = build_tree(obs, db)
            assert len(branches) == 1
            chain = build_chain(obs, db)
            assert [
                (l.module.serial, l.connection_angle, l.direction)
                for l in branches[0].links
            ] == [(l.module.serial, l.connection_angle, l.direction) for l in chain.links]
        rng = np.random.default_rng(808)
        trees_ok = 0
        for _ in range(50):
            obs, trunk, arm1, arm2 = make_two_branch_scene(rng, db)
            branches = build_tree(obs, db)
            assert len(branches) == 2
            got = {tuple(l.module.serial for l in b.links) for b in branches}
            assert got == {tuple(trunk + arm1), tuple(trunk + arm2)}
            prefix_a = [l.module.serial for l in branches[0].links][: len(trunk)]
            prefix_b = [l.module.serial for l in branches[1].links][: len(trunk)]
            assert prefix_a == prefix_b == trunk
            trees_ok += 1
    print(
        f"CRITERION 8 PASS: build_tree matched build_chain on all "
        f"{len(corpus_scenes)} chain scenes; {trees_ok}/50 two-branch trees "
        f"recovered with the shared prefix identified"
    )


def test_boundary_distance_moves_no_output(db, corpus_scenes):
    # Zero-noise scenes put some non-adjacent modules exactly
    # max_connected_distance() + epsilon1 = 170 mm apart, so the last bit of
    # a distance decides whether they are neighbors.  Chain strings and joint
    # angles must not depend on that bit on either back end.
    epsilons = (20.0 - 1e-9, 20.0, 20.0 + 1e-9)
    moved = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for desc, canonical, thetas, base, obs in corpus_scenes:
            detected, _ = validate_markers(obs, db)
            found = [
                [[m.serial for m in neighbors(d, detected, db, IdentifyConfig(epsilon1=eps))]
                 for d in detected]
                for eps in (epsilons[0], epsilons[-1])
            ]
            moved += found[0] != found[1]
            for method in ("geometric", "optimization"):
                outputs = []
                for eps in epsilons:
                    chain = build_chain(obs, db, IdentifyConfig(epsilon1=eps, method=method))
                    angles = [l.joint_angle for l in chain.links]
                    outputs.append((serialize(to_descriptor(chain)), angles))
                assert outputs[0] == outputs[1] == outputs[2], (canonical, method)
    assert moved > 0
    print(f"BOUNDARY PASS: neighbors moved in {moved} scenes; no chain or joint angle moved")
