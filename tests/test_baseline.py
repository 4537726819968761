import pytest

from bipoly.baseline import GaspParams, gasp_max_m, gasp_rth, gasp_upload_cost_bits
from bipoly.errors import BudgetTooSmallError, ParameterError, UnsupportedRegimeError


def test_rth_case_values():
    assert gasp_rth(GaspParams(K=5, L=5, T=3, m=1)) == 44   # 1 < mT < L
    assert gasp_rth(GaspParams(K=5, L=5, T=3, m=2)) == 61   # K <= mT
    assert gasp_rth(GaspParams(K=5, L=5, T=3, m=5)) == 79
    assert gasp_rth(GaspParams(K=5, L=5, T=1, m=1)) == 35   # mT == 1 < L
    assert gasp_rth(GaspParams(K=5, L=2, T=1, m=3)) == 23   # L <= mT < K


def test_rth_rejects_wide_partitioning():
    with pytest.raises(UnsupportedRegimeError):
        GaspParams(K=2, L=3, T=1, m=1)


def test_rth_rejects_unmasked():
    with pytest.raises(UnsupportedRegimeError):
        gasp_rth(GaspParams(K=3, L=2, T=0, m=2))


def test_rth_monotone_in_m():
    for K in range(1, 9):
        for L in range(1, K + 1):
            for T in range(1, 4):
                values = [gasp_rth(GaspParams(K, L, T, m)) for m in range(1, L + 1)]
                assert values == sorted(values)


def test_rth_case_boundaries_pinned():
    # K=7, L=4, T=1: walking m crosses every tabulated case once
    got = [gasp_rth(GaspParams(7, 4, 1, m)) for m in range(1, 5)]
    # mT=1 (case a): KL+K+L; mT=2,3 (case b): +(mT)^2+mT-3; mT=4 (case c)
    assert got == [39, 42, 48, 54]
    # jumps are never downward across the case seams
    assert got == sorted(got)


def test_max_m_per_budget():
    assert gasp_max_m(2) == 1
    assert gasp_max_m(3) == 1
    assert gasp_max_m(7) == 3
    assert gasp_max_m(10) == 5
    with pytest.raises(BudgetTooSmallError):
        gasp_max_m(1)


def test_upload_cost():
    q = 2**31 - 1
    g1 = GaspParams(K=5, L=5, T=3, m=1)
    g3 = GaspParams(K=5, L=5, T=3, m=3)
    # m = 1 coincides with the proposed scheme's cost formula
    from bipoly.bivariate import SchemeParams
    from bipoly.scheme import upload_cost_bits

    p1 = SchemeParams(K=5, L=5, T=3, m=1, N=51, q=q)
    assert gasp_upload_cost_bits(g1, 51, 100, 100, 100, q) == upload_cost_bits(
        p1, 100, 100, 100
    )
    # linear in m
    assert gasp_upload_cost_bits(g3, 51, 100, 100, 100, q) == 3 * gasp_upload_cost_bits(
        g1, 51, 100, 100, 100, q
    )
    assert gasp_upload_cost_bits(g3, 51, 100, 100, 100, q) == 51 * 3 * 4000 * 31


@pytest.mark.parametrize("fields", [(0, 1, 1, 1), (2, 1, -1, 1), (2, 1, 1, 0)])
def test_params_refuse_counts_out_of_range(fields):
    with pytest.raises(UnsupportedRegimeError, match="need K, L, m >= 1 and T >= 0"):
        GaspParams(*fields)


def test_params_and_budget_name_a_value_that_is_not_an_integer():
    # GaspParams(5.5, 5, 3, 1) once gave an R_th of 47.0, gasp_max_m(4.5) 2.0.
    with pytest.raises(ParameterError, match="^K=5.5 is not an integer"):
        GaspParams(5.5, 5, 3, 1)
    with pytest.raises(ParameterError, match="^budget=4.5 is not an integer"):
        gasp_max_m(4.5)


def test_upload_cost_refuses_a_row_count_below_one():
    # r = -5 once cost 0 bits.
    with pytest.raises(UnsupportedRegimeError, match="dims need r >= 1"):
        gasp_upload_cost_bits(GaspParams(K=5, L=5, T=3, m=2), 51, -5, 5, 5, 2**31 - 1)
