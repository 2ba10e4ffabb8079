"""The science outputs against the golden records in tests/golden/records.json.

Every field must stay within 1e-12 max(1, |x|) of its stored value; on
failure the message lists the largest change per field.  A change that moves
the science regenerates the file with tests/golden/regenerate.py.
"""
from golden.regenerate import TOLERANCE, compute, largest_changes, load, report


def test_records_match_the_golden_records(scaling_data):
    worst = largest_changes(load(), compute(scaling_data["points"], scaling_data["fits"]))
    moved = {name: change for name, change in worst.items() if not change[0] <= TOLERANCE}
    assert not moved, f"fields moved by more than {TOLERANCE:g} max(1, |x|); largest change per field:\n{report(worst)}"
