"""Replay every race condition figure from the paper, deterministically.

Each figure is one stored schedule, replayed by the model checker twice:
first with the unleased baseline (Twemcache + Facebook read leases),
which exhibits the race, then with the IQ framework, which prevents it.
Both variants run the library's own consistency clients.

Run:  python examples/race_conditions.py
"""

from repro.mc import run_figures


def main():
    print("Scenario".ljust(10), "Variant".ljust(21), "RDBMS".ljust(8),
          "KVS".ljust(8), "Outcome")
    print("-" * 75)
    for outcome in run_figures():
        status = "consistent" if outcome.consistent else "*** STALE ***"
        print(
            outcome.figure.ljust(10),
            outcome.variant.ljust(21),
            repr(outcome.rdbms_value).ljust(8),
            repr(outcome.kvs_value).ljust(8),
            status,
        )
        print(" " * 10, "steps:", " ".join(
            label for _name, label in outcome.result.steps))
    print()
    print("Every baseline run diverges; every IQ run ends consistent.")


if __name__ == "__main__":
    main()
