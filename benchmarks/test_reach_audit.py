"""The reach audit on a tiny entry script: what it calls is reached,
what it never calls is listed."""

import sys

import reach_audit

ENTRY = ("from repro.relational import vector; "
         "assert vector.take([7, 8, 9], [2]) == [9]")


def test_called_function_is_reached_and_uncalled_one_listed(tmp_path):
    report = reach_audit.audit([[sys.executable, "-c", ENTRY]], tmp_path)
    assert report.failures == []
    unreached = {(f.path, f.name) for f in report.unreached}
    vector = "src/repro/relational/vector.py"
    assert (vector, "take") not in unreached
    assert (vector, "compress") in unreached
    assert report.render().splitlines()[-1].startswith("unreached: ")
