"""The package's record types: immutable namedtuples that validate on
construction, with the equality, hash and repr of their fields."""
import math
import pickle

import numpy as np
import pytest

from casimir_plates import free_energy
from casimir_plates.epstein import EpsteinParams
from casimir_plates.errors import DomainError
from casimir_plates.free_energy import (
    EvalResult,
    PlateKind,
    PlateSystem,
    SeriesControl,
    ThermalPoint,
)
from casimir_plates.verification import Check

# one record of each type, its fields, and its repr
RECORDS = [
    (SeriesControl(), (1e-12, 10**6), "SeriesControl(rel_tol=1e-12, max_terms=1000000)"),
    (EvalResult(value=-0.5, abs_err_est=1e-17, terms_used=3, rep="coth"),
     (-0.5, 1e-17, 3, "coth"),
     "EvalResult(value=-0.5, abs_err_est=1e-17, terms_used=3, rep='coth')"),
    (PlateSystem(2.0), (2.0, PlateKind.BOYER_MIXED),
     "PlateSystem(d=2.0, kind=<PlateKind.BOYER_MIXED: 'boyer'>)"),
    (ThermalPoint(0.5), (0.5,), "ThermalPoint(xi=0.5)"),
    (EpsteinParams(2.0, (1.0, 4.0)), (2.0, (1.0, 4.0), 0.0),
     "EpsteinParams(z=2.0, a=(1.0, 4.0), m2=0.0)"),
    (Check("tis/f1", 1e-9, 1e-8, True), ("tis/f1", 1e-9, 1e-8, True),
     "Check(name='tis/f1', residual=1e-09, tolerance=1e-08, passed=True)"),
]
IDS = [type(r).__name__ for r, _, _ in RECORDS]


@pytest.mark.parametrize("record, fields, text", RECORDS, ids=IDS)
class TestRecordBehaviour:
    def test_equality_and_hash_are_the_fields(self, record, fields, text):
        twin = type(record)(*fields)
        assert twin == record
        assert hash(twin) == hash(record) == hash(fields)
        # namedtuples: a record equals the plain tuple of its fields
        assert record == fields

    def test_make_and_replace(self, record, fields, text):
        assert type(record)._make(fields) == record
        other = record._replace(**{record._fields[0]: fields[0] * 2})
        assert type(other) is type(record)
        assert other != record
        assert other[1:] == record[1:]

    def test_repr(self, record, fields, text):
        assert repr(record) == text

    def test_immutable(self, record, fields, text):
        with pytest.raises(AttributeError):
            setattr(record, record._fields[0], fields[0])
        with pytest.raises(AttributeError):
            record.extra = 1.0

    def test_pickle_round_trip(self, record, fields, text):
        assert pickle.loads(pickle.dumps(record)) == record


class TestSeriesControl:
    def test_keywords_and_defaults(self):
        ctl = SeriesControl(max_terms=50)
        assert ctl == SeriesControl(1e-12, 50)
        assert SeriesControl._fields == ("rel_tol", "max_terms")
        assert SeriesControl(max_terms=5).max_terms == 5  # below the kernel's floor of 8

    @pytest.mark.parametrize("rel_tol", [0.0, -1e-12, math.nan])
    def test_rel_tol_must_be_positive(self, rel_tol):
        with pytest.raises(DomainError, match="^rel_tol must be positive$"):
            SeriesControl(rel_tol=rel_tol)

    @pytest.mark.parametrize("rel_tol", [math.inf, 10**400])
    def test_rel_tol_must_be_finite(self, rel_tol):
        with pytest.raises(DomainError, match="^rel_tol must be finite, got "):
            SeriesControl(rel_tol=rel_tol)

    @pytest.mark.parametrize("kw", [
        {"max_terms": math.nan}, {"max_terms": math.inf}, {"max_terms": 100.0},
        {"max_terms": "8"}, {"max_terms": None}, {"max_terms": True},
        {"max_terms": False}, {"max_terms": np.float64(8.0)},
    ])
    def test_term_counts_must_be_integers(self, kw):
        with pytest.raises(DomainError, match="^max_terms must be an integer, got "):
            SeriesControl(**kw)

    def test_numpy_integer_counts_become_ints(self):
        ctl = SeriesControl(max_terms=np.int64(100))
        assert ctl == SeriesControl(1e-12, 100)
        assert type(ctl.max_terms) is int

    # the one order left: 1 <= max_terms
    @pytest.mark.parametrize("kw", [
        {"max_terms": 0}, {"max_terms": -3}, {"max_terms": np.int32(0)}, {"max_terms": -10**400},
    ])
    def test_term_counts_must_be_ordered(self, kw):
        with pytest.raises(DomainError, match=r"^max_terms must be at least 1$"):
            SeriesControl(**kw)

    def test_replace_validates(self):
        with pytest.raises(DomainError):
            SeriesControl()._replace(max_terms=math.inf)
        assert SeriesControl()._replace(max_terms=9).max_terms == 9

    def test_one_shared_default(self):
        assert free_energy._DEFAULT_CTL == SeriesControl()


class TestEvalResult:
    @pytest.mark.parametrize("bar", [-1e-300, -math.inf, math.nan])
    def test_bar_must_be_nonnegative(self, bar):
        with pytest.raises(DomainError, match="^abs_err_est must be nonnegative$"):
            EvalResult(1.0, bar, 1, "coth")

    def test_infinite_bar_is_a_value(self):
        assert EvalResult(1.0, math.inf, 1, "coth").abs_err_est == math.inf

    def test_replace_validates(self):
        r = EvalResult(1.0, 0.0, 1, "coth")
        with pytest.raises(DomainError):
            r._replace(abs_err_est=math.nan)


class TestPlateSystem:
    @pytest.mark.parametrize("d", [0.0, -1.0, math.inf, math.nan])
    def test_separation(self, d):
        with pytest.raises(
            DomainError, match=r"^plate separation d must be finite and positive, got "
        ):
            PlateSystem(d)

    @pytest.mark.parametrize("kind", ["conductor", PlateKind.CONDUCTOR_CONDUCTOR])
    def test_kind_coercion(self, kind):
        s = PlateSystem(1.0, kind)
        assert s.kind is PlateKind.CONDUCTOR_CONDUCTOR
        assert s == PlateSystem(d=1.0, kind="conductor")
        assert PlateSystem(1.0, "boyer") == PlateSystem(1.0)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="'mirror' is not a valid PlateKind"):
            PlateSystem(1.0, "mirror")

    def test_separation_checked_before_kind(self):
        with pytest.raises(DomainError):
            PlateSystem(-1.0, "mirror")


class TestThermalPoint:
    @pytest.mark.parametrize("xi", [0.0, -0.5, math.inf, math.nan])
    def test_xi(self, xi):
        with pytest.raises(DomainError, match=r"^xi must be finite and positive, got "):
            ThermalPoint(xi)

    @pytest.mark.parametrize("beta", [0.0, -1.0, math.inf, math.nan])
    def test_from_beta(self, beta):
        with pytest.raises(DomainError, match=r"^beta must be finite and positive, got "):
            ThermalPoint.from_beta(beta, 1.0)

    def test_constructors(self):
        t = ThermalPoint.from_beta(0.5, 1.0)
        assert type(t) is ThermalPoint
        assert t.beta(1.0) == pytest.approx(0.5, rel=1e-15)
        assert ThermalPoint.from_xi(0.3, 7.0) == ThermalPoint(xi=0.3)


class TestEpsteinParams:
    def test_default_m2(self):
        assert EpsteinParams(z=2.0, a=(1.0,)).m2 == 0.0

    @pytest.mark.parametrize("kw, message", [
        ({"a": ()}, "need at least one lattice coefficient"),
        ({"a": (1.0, 0.0)}, "lattice coefficients must be positive"),
        ({"a": (1.0,), "m2": -1.0}, r"M\^2 must be nonnegative"),
    ])
    def test_validation(self, kw, message):
        with pytest.raises(DomainError, match=f"^{message}$"):
            EpsteinParams(2.0, **kw)
