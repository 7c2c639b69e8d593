"""Hostile values for every declared key.  Each id's first default point,
with one int, Fraction, float or tuple key set to an extreme, must end in a
report or a refusal (ValueError, BudgetError included, or KeyError) within
ALARM_S seconds: never in another exception, and never in a long run."""

import math
import signal
from fractions import Fraction
from typing import get_origin

import pytest

from dedsums.verify import (IDENTITY_IDS, PARAMETERS, VerificationReport, default_grid,
                            verify_identity)

ALARM_S = 1.0
HUGE = 10 ** 900
_SCALARS = {int: (0, -1, 2 ** 31, HUGE), Fraction: (0, -1, 2 ** 31, HUGE),
            float: (0.0, -1.0, math.inf, math.nan)}


def _probes(rid):
    """(key, value) for every extreme of every int, Fraction, float and tuple
    key of rid's first default point; a tuple key is emptied, repeated 8
    times, and filled with 2^31 and with 10^900."""
    point = default_grid(rid)[0]
    for key, typ in PARAMETERS[rid].items():
        if typ in _SCALARS:
            values = _SCALARS[typ]
        elif get_origin(typ) is tuple:
            default = tuple(point[key])
            values = ((), default * 8, (2 ** 31,) * len(default), (HUGE,) * len(default))
        else:
            continue
        for value in values:
            yield point, key, value


class _OverTime(Exception):
    """Raised by the alarm in the call it interrupts."""


def _on_alarm(signum, frame):
    raise _OverTime


@pytest.fixture
def alarm():
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    yield
    signal.setitimer(signal.ITIMER_REAL, 0)
    signal.signal(signal.SIGALRM, previous)


def test_every_id_is_probed():
    assert sum(1 for rid in IDENTITY_IDS for _ in _probes(rid)) == 340


@pytest.mark.parametrize("rid", IDENTITY_IDS)
def test_an_extreme_key_is_a_report_or_a_refusal_within_the_alarm(alarm, rid):
    faults = []
    for point, key, value in _probes(rid):
        signal.setitimer(signal.ITIMER_REAL, ALARM_S)
        try:
            result = verify_identity(rid, {**point, key: value})
        except (ValueError, KeyError):
            continue
        except _OverTime:
            faults.append((key, value, f"still running after {ALARM_S} s"))
            continue
        except Exception as exc:  # any other exception is a fault
            faults.append((key, value, repr(exc)))
            continue
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        if not isinstance(result, VerificationReport):
            faults.append((key, value, f"returned {result!r}"))
    assert not faults, [(key, str(value)[:40], what) for key, value, what in faults]
