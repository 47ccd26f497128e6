"""The ten-criterion acceptance battery, run once through the CLI suite verb.

The run doubles as the integration test for `lbcalc suite`: parsing, seeding,
report assembly and the exit code all sit on the same path the shell uses.
One PASS/FAIL line per criterion, with its wall time, is echoed into the
terminal summary by the hook in conftest.  The run also times each criterion,
and two of them have a wall-time budget: 10 s for criterion 1 and 60 s for
criterion 8.
"""

import io
import json
import time

import pytest
from conftest import ACCEPTANCE_KEY

from lbcalc import acceptance, cli

CRITERIA = [
    "bch-matrix-oracle",
    "exp-homomorphism",
    "bracket-axioms",
    "bonding-contraction",
    "germ-inversion",
    "composition-derivative",
    "series-bound-suite",
    "certificate-hammer",
    "regularity-moduli",
    "norm-comparison-hook",
]


BUDGETS = {1: 10.0, 8: 60.0}  # criterion number -> wall-time budget in seconds


@pytest.fixture(scope="session")
def timed_battery(request):
    """(exit code, report, seconds per criterion) of one `lbcalc suite --seed 0` run."""
    seconds = []

    def timed(criterion):
        def run(seed):
            start = time.perf_counter()
            result = criterion(seed)
            seconds.append(time.perf_counter() - start)
            return result

        return run

    buf = io.StringIO()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(acceptance, "CRITERIA", tuple(map(timed, acceptance.CRITERIA)))
        code = cli.execute(cli.parse(["suite", "--seed", "0"]), out=buf)
    report = json.loads(buf.getvalue())
    request.config.stash[ACCEPTANCE_KEY] = [
        f"{line} ({t:.2f} s)" for line, t in zip(report["lines"], seconds)
    ]
    return code, report, seconds


@pytest.fixture(scope="session")
def battery(timed_battery):
    return timed_battery[:2]


def test_suite_exit_code_tracks_the_verdicts(battery):
    code, report = battery
    assert report["passed"] is True
    assert code == 0
    assert report["seed"] == 0


def test_battery_runs_all_ten_criteria_in_order(battery):
    _, report = battery
    assert [c["name"] for c in report["criteria"]] == CRITERIA
    assert [c["number"] for c in report["criteria"]] == list(range(1, 11))


@pytest.mark.parametrize("number", range(1, 11), ids=CRITERIA)
def test_criterion_passes(battery, number):
    _, report = battery
    entry = report["criteria"][number - 1]
    assert entry["passed"], report["lines"][number - 1]
    assert entry["detail"]


def test_criteria_keep_their_time_budgets(timed_battery):
    _, report, seconds = timed_battery
    assert len(seconds) == 10
    for number, budget in BUDGETS.items():
        assert seconds[number - 1] < budget, report["lines"][number - 1]


def test_reports_carry_no_wall_times(battery):
    _, report = battery
    for entry, line in zip(report["criteria"], report["lines"]):
        assert set(entry) == {"number", "name", "passed", "detail"}
        assert line.endswith(entry["detail"])


def test_report_lines_are_printable_one_per_criterion(battery):
    _, report = battery
    assert len(report["lines"]) == 10
    for line, name in zip(report["lines"], CRITERIA):
        assert line.startswith(("PASS", "FAIL"))
        assert name in line


def test_germ_inversion_reports_its_least_sup_slack(battery):
    # the least 1/(6n) - sup_norm(h) over the 1,000 inverses; the detail
    # used to clamp it at 0
    _, report = battery
    detail = report["criteria"][4]["detail"]
    slack = float(detail.split("sup slack ")[1].split(",")[0])
    assert 0.0 < slack < 1.0 / 24


def test_norm_hook_detail_does_not_depend_on_earlier_work():
    first = acceptance.criterion_norm_comparison_hook(0)
    second = acceptance.criterion_norm_comparison_hook(0)
    assert first.passed and second.passed
    assert first.detail == second.detail
