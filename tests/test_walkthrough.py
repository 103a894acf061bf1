"""Every walkthrough output's bytes against the committed digests.

`walkthrough_hashes.py` runs the README walkthrough, the bench studies and
the noise sweeps through the CLI and prints one digest line per output;
`walkthrough.sha256` holds the lines it printed when they were last
reviewed. A change that moves any output byte fails here, and shows as a
diff of that file once the new lines are committed.
"""

import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def test_walkthrough_outputs_match_the_committed_digests(tmp_path):
    run = subprocess.run(
        [sys.executable, str(HERE / "walkthrough_hashes.py"), str(tmp_path / "out")],
        capture_output=True, text=True, check=True,
    )
    want = (HERE / "walkthrough.sha256").read_text(encoding="utf-8").splitlines()
    assert len(want) == 49
    assert run.stdout.splitlines() == want
