"""The fixed-seed sweep behind ``make sanitize-sweep``."""

from repro.errors import SanitizerViolation
from repro.verify import sweep as sw


def test_a_few_seeds_of_every_protocol_are_clean():
    assert sw.sweep(range(3)) is None


def test_first_failure_stops_the_sweep_and_is_named(monkeypatch, capsys):
    ran = []

    def run_one(protocol, rf, seed):
        ran.append((protocol, seed))
        if protocol == "full-track" and seed == 1:
            raise SanitizerViolation("activation-safety broken\nsecond line")

    monkeypatch.setattr(sw, "run_one", run_one)
    failure = sw.sweep(range(3))
    assert len(ran) == 5  # three opt-track seeds, then full-track 0 and 1
    assert (failure.protocol, failure.seed) == ("full-track", 1)
    assert str(failure) == (
        "protocol full-track seed 1: SanitizerViolation: activation-safety broken"
    )
    assert sw.main(["--seeds", "3"]) == 1
    assert "protocol full-track seed 1" in capsys.readouterr().err


def test_cli_restricts_to_one_protocol(capsys):
    assert sw.main(["--seeds", "2", "--protocol", "optp"]) == 0
    assert "swept 2 runs (1 protocols" in capsys.readouterr().out
