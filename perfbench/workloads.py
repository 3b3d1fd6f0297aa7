"""The benchmark's workloads: their inputs, the timed path, and its checks.

Every call into chainforge goes through the module object
(`cf_identify.build_chain`, not an imported name) so that the spans the
traced run installs on those modules see the benchmark's own calls.

A workload's `run(item)` is the timed path for one scene.  `check(item,
outcome)` returns the correctness failures of one outcome, and
`accuracy(items, outcomes)` the accuracy figures of a full pass.
"""

from __future__ import annotations

import dataclasses
import os
from collections import Counter
from dataclasses import dataclass

import chainforge.descriptor as cf_descriptor
import chainforge.identify as cf_identify
import chainforge.modelgen as cf_modelgen
import chainforge.synth as cf_synth
from chainforge.geometry import wrap_angle

import inputs

GEOMETRIC = "geometric"
OPTIMIZATION = "optimization"

# Criterion 2: zero-noise joint angles come back within this bound.
ZERO_NOISE_JOINT_TOL_DEG = 1e-6


def joint_errors(db, desc, thetas, chain) -> list[float]:
    """Absolute joint-angle errors in degrees of a chain that matches `desc`.

    Pairs descriptor entries with chain links in order; inf where no angle
    was estimated.
    """
    truth = iter(thetas)
    errors = []
    for entry, link in zip(desc.entries, chain.links):
        if db.types[entry.type_code].is_joint:
            theta = next(truth)
            if link.joint_angle is None:
                errors.append(float("inf"))
            else:
                errors.append(abs(wrap_angle(link.joint_angle - theta)))
    return errors


def link_summary(chain) -> list[tuple[str, float | None]]:
    """(serial, connection angle) per link: what the two back ends must agree on."""
    return [(link.module.serial, link.connection_angle) for link in chain.links]


def quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile; nan for an empty list."""
    if not values:
        return float("nan")
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, int(q * len(ordered) + 0.5) - 1))]


# --- corpus workloads -------------------------------------------------------


@dataclass(frozen=True)
class SceneFile:
    case: inputs.ChainCase
    scene_path: str
    model_path: str


@dataclass
class CorpusOutcome:
    text: str | None
    chain: object | None
    error: str | None = None


def identify_to_model(db, cfg, scene_path: str, model_path: str) -> CorpusOutcome:
    """`chainforge identify --scene S --out M`: scene file in, model file out.

    A typed identification failure ends the path the way the command ends
    with exit code 2: no chain and no model file.
    """
    observations = cf_synth.read_scene(scene_path)
    try:
        chain = cf_identify.build_chain(observations, db, cfg)
    except cf_identify.IdentifyError as exc:
        return CorpusOutcome(None, None, type(exc).__name__)
    text = cf_descriptor.serialize(cf_identify.to_descriptor(chain))
    model = cf_modelgen.generate_model(
        chain,
        db,
        metadata={
            "scene_path": scene_path,
            "method": cfg.method,
            "config": {
                "epsilon1": cfg.epsilon1,
                "epsilon2": cfg.epsilon2,
                "f_threshold": cfg.f_threshold,
            },
        },
    )
    cf_modelgen.write_model(model, model_path)
    return CorpusOutcome(text, chain)


class CorpusWorkload:
    """The zero-noise criterion-2 corpus, one scene file per chain."""

    PINNED_SHA256 = inputs.ACCEPTANCE_CORPUS_SHA256

    def __init__(self, name: str, method: str, db, seeds: inputs.Seeds, workdir: str):
        self.name = name
        self.method = method
        self.db = db
        self.cfg = cf_identify.IdentifyConfig(method=method)
        self.items: list[SceneFile] = []
        for k, case in enumerate(inputs.make_corpus(db, seeds.poses)):
            scene_path = os.path.join(workdir, f"scene-{k:03d}.json")
            observations = cf_synth.synthesize(case.desc, case.thetas, db, base=case.base)
            cf_synth.write_scene(scene_path, observations)
            model_path = os.path.join(workdir, f"model-{k:03d}.xml")
            self.items.append(SceneFile(case, scene_path, model_path))

    def input_digest(self) -> str:
        return inputs.sha256(inputs.corpus_digest_text([item.case for item in self.items]))

    def run(self, item: SceneFile) -> CorpusOutcome:
        return identify_to_model(self.db, self.cfg, item.scene_path, item.model_path)

    def warmup_spec(self, item: SceneFile) -> dict:
        """What setup_probe.py runs as its warm-up scene."""
        return {"method": self.method, "scene": item.scene_path, "model": item.model_path}

    def key(self, outcome: CorpusOutcome) -> tuple:
        return (outcome.text, outcome.error)

    def check(self, item: SceneFile, outcome: CorpusOutcome) -> list[str]:
        """A wrong chain, joint angle, model file or back-end disagreement fails.

        A typed identification failure is no wrong output; it is counted by
        `accuracy` instead, and the acceptance seeds allow none.
        """
        case = item.case
        where = f"scene {os.path.basename(item.scene_path)}"
        if outcome.error is not None:
            return []
        if outcome.text != case.canonical:
            return [f"{where}: recovered {outcome.text!r}, truth {case.canonical!r}"]
        failures = []
        worst = max(joint_errors(self.db, case.desc, case.thetas, outcome.chain), default=0.0)
        if not worst <= ZERO_NOISE_JOINT_TOL_DEG:
            failures.append(f"{where}: joint angle off by {worst!r} deg")
        try:
            model = cf_modelgen.read_model(item.model_path)
        except Exception as exc:  # any failure to read back is a wrong output
            failures.append(f"{where}: model does not read back: {type(exc).__name__}: {exc}")
        else:
            if model.metadata.get("description") != [outcome.text]:
                failures.append(f"{where}: model describes {model.metadata.get('description')!r}")
        if self.method == OPTIMIZATION:
            observations = cf_synth.read_scene(item.scene_path)
            try:
                geometric = cf_identify.build_chain(
                    observations, self.db, cf_identify.IdentifyConfig(method=GEOMETRIC)
                )
            except cf_identify.IdentifyError:
                # The geometric back end's refusals are counted on
                # corpus-geometric; there is nothing to compare against.
                return failures
            if link_summary(geometric) != link_summary(outcome.chain):
                failures.append(f"{where}: geometric and optimization back ends disagree")
        return failures

    def accuracy(self, items: list[SceneFile], outcomes: list[CorpusOutcome | None]) -> dict:
        exact = 0
        joint_errs: list[float] = []
        errors_by_type = Counter()
        for item, outcome in zip(items, outcomes):
            if outcome is None:
                continue
            if outcome.error is not None:
                errors_by_type[outcome.error] += 1
            elif outcome.text == item.case.canonical:
                exact += 1
                case = item.case
                joint_errs.extend(joint_errors(self.db, case.desc, case.thetas, outcome.chain))
        return {
            "attempted": len(items),
            "exact": exact,
            "exact_by_method": {self.method: exact},
            "identification_errors": errors_by_type,
            "joint_err_p95_deg": quantile(joint_errs, 0.95),
            "rows": {},
        }


# --- noisy round trip -------------------------------------------------------

NOISE_ROWS = (
    # name, sigma (mm and deg), spurious markers, dropout probability
    ("s2-spurious3", 2.0, 3, 0.0),
    ("s4-spurious3", 4.0, 3, 0.0),
    ("s6-spurious3", 6.0, 3, 0.0),
    ("s2-dropout5", 2.0, 0, 0.05),
)


@dataclass(frozen=True)
class Trial:
    row: str
    thetas: list[float]
    scene_cfg: cf_synth.SceneConfig


@dataclass
class Identification:
    chain: object | None
    text: str | None
    error: str | None


@dataclass
class TrialOutcome:
    observations: list
    by_method: dict[str, Identification]


def identify_both(db, observations) -> dict[str, Identification]:
    results = {}
    for method in (GEOMETRIC, OPTIMIZATION):
        cfg = cf_identify.IdentifyConfig(method=method)
        try:
            chain = cf_identify.build_chain(observations, db, cfg)
        except cf_identify.IdentifyError as exc:
            results[method] = Identification(None, None, type(exc).__name__)
            continue
        text = cf_descriptor.serialize(cf_identify.to_descriptor(chain))
        results[method] = Identification(chain, text, None)
    return results


def roundtrip_trial(db, desc, thetas, scene_cfg) -> TrialOutcome:
    """One `chainforge roundtrip` trial: synthesize, then identify with both back ends."""
    observations = cf_synth.synthesize(desc, thetas, db, cfg=scene_cfg)
    return TrialOutcome(observations, identify_both(db, observations))


class NoisyRoundtripWorkload:
    """Criterion-4 manipulator draws under four noise rows."""

    name = "noisy-roundtrip"
    PINNED_SHA256 = inputs.ACCEPTANCE_TRIALS_SHA256

    def __init__(self, db, seeds: inputs.Seeds, workdir: str):
        del workdir  # scenes stay in memory, as in `chainforge roundtrip`
        self.db = db
        self.desc = inputs.manipulator()
        self.canonical = cf_descriptor.serialize(self.desc)
        self.draws = inputs.manipulator_joint_draws(seeds.joints)
        self.items = [
            Trial(
                row,
                thetas,
                cf_synth.SceneConfig(
                    sigma_pos=sigma,
                    sigma_rot=sigma,
                    dropout_prob=dropout,
                    spurious_count=spurious,
                    seed=seeds.markers + k,
                ),
            )
            for row, sigma, spurious, dropout in NOISE_ROWS
            for k, thetas in enumerate(self.draws)
        ]

    def input_digest(self) -> str:
        return inputs.sha256(inputs.trials_digest_text(self.draws))

    def run(self, item: Trial) -> TrialOutcome:
        return roundtrip_trial(self.db, self.desc, item.thetas, item.scene_cfg)

    def warmup_spec(self, item: Trial) -> dict:
        """What setup_probe.py runs as its warm-up scene."""
        return {
            "chain": self.canonical,
            "thetas": item.thetas,
            "scene_cfg": dataclasses.asdict(item.scene_cfg),
        }

    def key(self, outcome: TrialOutcome) -> tuple:
        return tuple((r.text, r.error) for r in outcome.by_method.values())

    def check(self, item: Trial, outcome: TrialOutcome) -> list[str]:
        """Every spurious marker must be rejected as unknown by every chain found."""
        spurious = {
            o.marker_id for o in outcome.observations if self.db.lookup_marker(o.marker_id) is None
        }
        failures = []
        for method, result in outcome.by_method.items():
            if result.chain is None:
                continue
            rejected = {
                m for m, reason in result.chain.rejected_markers
                if reason == cf_identify.REASON_UNKNOWN_MARKER
            }
            if rejected != spurious:
                failures.append(
                    f"{item.row} seed {item.scene_cfg.seed} {method}: unknown markers "
                    f"{sorted(spurious)} but rejected {sorted(rejected)}"
                )
        return failures

    def accuracy(self, items: list[Trial], outcomes: list[TrialOutcome | None]) -> dict:
        rows: dict[str, dict] = {}
        exact_by_method = Counter({GEOMETRIC: 0, OPTIMIZATION: 0})
        errors_by_type = Counter()
        joint_errs: list[float] = []
        for item, outcome in zip(items, outcomes):
            if outcome is None:
                continue
            for method, result in outcome.by_method.items():
                row = rows.setdefault(f"{method}.{item.row}", {"exact": 0, "errors": []})
                if result.error is not None:
                    errors_by_type[result.error] += 1
                if result.text != self.canonical:
                    continue
                row["exact"] += 1
                exact_by_method[method] += 1
                errs = joint_errors(self.db, self.desc, item.thetas, result.chain)
                row["errors"].extend(errs)
                if method == GEOMETRIC:
                    joint_errs.extend(errs)
        trials_per_row = Counter(item.row for item in items)
        return {
            "attempted": 2 * len(items),
            "exact": sum(exact_by_method.values()),
            "exact_by_method": dict(exact_by_method),
            "identification_errors": errors_by_type,
            "joint_err_p95_deg": quantile(joint_errs, 0.95),
            "rows": {
                name: {
                    "exact": row["exact"],
                    "trials": trials_per_row[name.split(".", 1)[1]],
                    "joint_err_p95_deg": quantile(row["errors"], 0.95),
                }
                for name, row in sorted(rows.items())
            },
        }
