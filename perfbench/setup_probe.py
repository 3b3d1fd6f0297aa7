"""Set-up time of one fresh process, as `setup_s` reports it.

Times `import chainforge`, `load_database` from the database's JSON file,
and one warm-up scene of the workload's timed path, then prints the
seconds.  run.py starts it several times and reports the median.

    python3 perfbench/setup_probe.py SRC_DIR DB_PATH WARMUP_JSON
"""

import json
import sys
import time
import warnings


def main() -> int:
    src, db_path, warmup = sys.argv[1], sys.argv[2], json.loads(sys.argv[3])
    sys.path.insert(0, src)
    warnings.simplefilter("ignore")
    start = time.perf_counter()
    import chainforge

    db = chainforge.load_database(db_path)
    import workloads

    if "scene" in warmup:
        cfg = chainforge.IdentifyConfig(method=warmup["method"])
        workloads.identify_to_model(db, cfg, warmup["scene"], warmup["model"])
    else:
        workloads.roundtrip_trial(
            db,
            chainforge.parse(warmup["chain"]),
            warmup["thetas"],
            chainforge.SceneConfig(**warmup["scene_cfg"]),
        )
    print(repr(time.perf_counter() - start))
    return 0


if __name__ == "__main__":
    sys.exit(main())
