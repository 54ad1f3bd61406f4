"""The CI workflow: it cannot run offline, so only its shape is checked."""

from pathlib import Path

import pytest

WORKFLOW = Path(__file__).resolve().parent.parent / ".github" / "workflows" / "tier1.yml"
TIER1 = "PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m pytest -q --continue-on-collection-errors"
SOURCE_SIZE = "wc -l src/stochworld/*.py"
STARTUP = "".join(
    f"{feed}python -X importtime -m stochworld.cli {command} 2>&1 >/dev/null | grep stochworld\n"
    for feed, command in (
        ("", "validate models/m1_coin.model"),
        ("", "simulate models/m1_coin.model --steps 10 --seed 1"),
        ("python -m stochworld.cli simulate models/m1_coin.model --steps 1000 --seed 1 | ", "markov-check -"),
        (
            "printf 'on move\\noff move\\noff -\\non move\\non -\\n' > house.traj\n"
            "printf 'charfn move action=move\\n' | ",
            "detect house.traj --direct -",
        ),
        ("printf '0 move 1\\n1 move 1\\n3 move 1\\n' | ", "track house.traj --model models/house.model --events -"),
        ("", "invert models/m1_coin.model"),
        ("", "invert models/m1_coin.model --mode mc --seed 1"),
    )
) + (
    # a 400-state ring, inverted by the sparse flow reduction without numpy
    r"""python -c 'ids = [f"s{i}" for i in range(400)]; print("model fomm\nobs " + " ".join(ids) + "\nstate s0 initial trace s0=1");"""
    r""" print("".join(f"state {s} trace {s}=1\n" for s in ids[1:]) + "".join(f"arrow {s} true {s} ap=0.5\narrow {s} true {t} ap=0.5\n" """
    r"""for s, t in zip(ids, ids[1:] + ids[:1])), end="")' | python -X importtime -m stochworld.cli invert - 2>&1 >/dev/null"""
    """ | grep -E 'stochworld|numpy'\n"""
) + (
    # compiled from source, as on a host that writes no bytecode
    """python -B -X pycache_prefix="$(mktemp -d)" -X importtime -c 'import stochworld.cli' 2>&1 | grep stochworld\n"""
)
#: the time of 10 000 seeded plus-mc resolutions of the rain model; it only reports
INTERVAL_INVERSION = (
    """python -c 'import time, stochworld as sw; m = sw.parse_model(open("models/rain.model").read());"""
    """ t = time.perf_counter(); sw.invert_mdp_plus(m, "monte-carlo", 10_000, 3);"""
    """ print(f"invert_mdp_plus rain monte-carlo 10000 seed 3: {time.perf_counter() - t:.3f} s")'\n"""
)
#: the golden smoke runs after this, so the runtime path is shown not to need scipy
NO_SCIPY = "pip uninstall -y scipy"
GOLDENS = (
    "python3 perfbench/run.py --workload all --seed 1 --seconds 1 --trace 0 | tail -n 1"
    """ | python3 -c 'import json, sys; sys.exit(not json.load(sys.stdin)["correct"])'"""
)


def test_tier1_workflow_parses():
    yaml = pytest.importorskip("yaml")
    job = yaml.safe_load(WORKFLOW.read_text())["jobs"]["tier1"]
    assert job["strategy"]["matrix"]["python-version"] == ["3.10", "3.11", "3.12", "3.13"]
    # a hung run fails fast instead of at GitHub's 6-hour default
    assert 0 < job["timeout-minutes"] <= 30
    runs = [step["run"] for step in job["steps"] if "run" in step]
    # the tier-1 command, logging the slowest tests on every matrix Python
    assert runs == ['pip install -e ".[test]"', TIER1 + " --durations=15", NO_SCIPY, SOURCE_SIZE, STARTUP, INTERVAL_INVERSION, GOLDENS]
    # the start-up report runs under the default shell, without pipefail
    assert "shell" not in job["steps"][-3]
    # pipefail, so a crashed benchmark run fails the step too
    assert job["steps"][-1]["shell"] == "bash"
