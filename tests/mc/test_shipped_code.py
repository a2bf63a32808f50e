"""The proofs cover shipped code: break ``repro.core``, the checker notices.

Each test rewrites one line of a shipped session in :mod:`repro.core`
(the source BG runs), installs the mutant, and explores a scenario that
is clean for the real code.  A checker that explored its own copy of
the sessions would stay clean; this one must report the violation.
"""

import inspect
import sys
import textwrap

import pytest

from repro.core.iq_client import IQClient
from repro.core.policies import _IQClientBase
from repro.mc import explore, get_scenario

pytestmark = pytest.mark.mc


def mutate(monkeypatch, owner, name, old, new):
    """Replace ``owner.name`` by its own source with ``old`` -> ``new``."""
    source = textwrap.dedent(inspect.getsource(getattr(owner, name)))
    assert source.count(old) == 1, "mutation site not found: " + old
    namespace = {}
    code = compile(source.replace(old, new),
                   "<mutant {}.{}>".format(owner.__name__, name), "exec")
    exec(code, vars(sys.modules[owner.__module__]), namespace)
    monkeypatch.setattr(owner, name, namespace[name])


def test_dar_before_commit_is_caught(monkeypatch):
    scenario = get_scenario("fig3-iq")
    assert explore(scenario).ok
    # The invalidate session's DaR (its shrinking phase) runs as its own
    # step *before* the RDBMS commit: the Figure 3 window reopens.
    mutate(monkeypatch, _IQClientBase, "_attempt",
           '    yield Op("sql-commit", sql=True)\n',
           '    yield Op(self._SHRINK, kvs=[c.key for c in changes])\n'
           '    self._shrink(session, changes, grown)\n'
           '    yield Op("sql-commit", sql=True)\n')
    report = explore(scenario)
    assert report.violation_count > 0
    messages = [m for v in report.violations for m in v.messages]
    assert any("stale-final" in m for m in messages), messages


def test_dropped_applied_fence_is_caught(monkeypatch):
    # A coalesced waiter consumes any resolved outcome, applied or not.
    mutate(monkeypatch, IQClient, "read_steps",
           "if outcome is not None and outcome.applied:",
           "if outcome is not None:")
    report = explore(get_scenario("coalesced-fenced-guard"),
                     max_states=200000)
    assert not report.truncated
    assert report.violation_count > 0
    messages = [m for v in report.violations for m in v.messages]
    assert any("coalesced-stale" in m for m in messages), messages
