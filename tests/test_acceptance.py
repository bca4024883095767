"""Acceptance suite: one test per criterion, one PASS/FAIL line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` or through the CLI as
``chs-lab acceptance``; both run the entries of ``acceptance.CRITERIA`` at the
same tolerances. Each entry is bound here as ``test_criterion_<name>``.
"""

from chslab import acceptance
from chslab.cli import main


def _criterion_test(name):
    def test():
        result = acceptance.run_criterion(name)
        print(f"\n{'PASS' if result.passed else 'FAIL'}  {name}  "
              f"[{result.duration_s:.1f}s]  {result.detail}")
        assert result.passed, f"{name}: {result.detail}"

    return test


for _name in acceptance.CRITERIA:
    globals()[f"test_criterion_{_name.replace('-', '_')}"] = _criterion_test(_name)


def test_run_all_reports_a_failing_criterion(monkeypatch, capsys):
    stubs = {"stub-pass": lambda: (True, "fine"), "stub-fail": lambda: (False, "broken")}
    monkeypatch.setattr(acceptance, "CRITERIA", stubs)
    lines = []
    results = acceptance.run_all(echo=lines.append)
    assert [(r.name, r.passed, r.detail) for r in results] == [
        ("stub-pass", True, "fine"),
        ("stub-fail", False, "broken"),
    ]
    assert lines[0] == f"PASS  {'stub-pass':24s} [{results[0].duration_s:7.1f}s]  fine"
    assert lines[1] == f"FAIL  {'stub-fail':24s} [{results[1].duration_s:7.1f}s]  broken"
    assert lines[2] == "1/2 acceptance criteria passed; FAILED: stub-fail"
    assert main(["acceptance"]) == 1
    printed = capsys.readouterr().out.splitlines()
    assert printed[-1] == "1/2 acceptance criteria passed; FAILED: stub-fail"
