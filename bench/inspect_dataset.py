"""Output check of one dataset directory through the program's own API.

    python3 bench/inspect_dataset.py DATASET_DIR

Runs ``recovergen stats DATASET_DIR --json`` in-process, loads the
manifest, records and trajectories with the program's loaders (which
enforce the manifest's line counts), and prints one JSON object with the
stats, the manifest counts, the loaded counts and whether every stored
trajectory is a success.
"""
from __future__ import annotations

import contextlib
import io
import json
import sys


def main(argv) -> int:
    (path,) = argv
    from recovergen.cli import main as cli_main
    from recovergen.dataset_io import deserialize, load_trajectories

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        stats_exit = cli_main(["stats", path, "--json"])
    records, manifest = deserialize(path)
    trajectories = load_trajectories(path)
    print(json.dumps({
        "stats_exit": stats_exit,
        "stats": json.loads(buf.getvalue()) if stats_exit == 0 else None,
        "manifest": {k: getattr(manifest, k) for k in (
            "source", "n_generated", "n_successful", "n_selected", "n_relabeled",
            "n_records", "n_trajectories")},
        "records_loaded": len(records),
        "trajectories_loaded": len(trajectories),
        "all_success": all(bool(t.success) for t in trajectories),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
