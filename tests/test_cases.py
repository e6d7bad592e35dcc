"""Tests for the experiment preset registry and mesh family helper."""

import pytest

from sdgflow import cases


def test_preset_names_cover_all_tables():
    names = cases.preset_names()
    assert names == [f"table{i}" for i in range(1, 9)]


def test_preset_families_and_eps_ladder():
    ladder = [1.0, 1e-2, 1e-4, 1e-8]
    for i, eps in enumerate(ladder):
        sq = cases.preset(f"table{i + 1}")
        di = cases.preset(f"table{i + 5}")
        assert (sq.family, sq.eps) == ("square", eps)
        assert (di.family, di.eps) == ("distorted", eps)
        for pr in (sq, di):
            assert pr.levels == (2, 4, 8, 16, 32)
            assert pr.orders == (1, 2, 3)
            assert pr.alpha == 1.0


def test_unknown_preset_lists_alternatives():
    with pytest.raises(KeyError, match="table1"):
        cases.preset("tableX")


@pytest.mark.parametrize("family,n", [("square", 3), ("distorted", 3), ("hanging", 4)])
def test_build_mesh_families(family, n):
    sm = cases.build_mesh(family, n)
    sm.validate()
    assert sm.num_triangles > 0


def test_build_mesh_unknown_family():
    with pytest.raises(ValueError, match="unknown mesh family"):
        cases.build_mesh("hexagonal", 4)


def test_build_mesh_distorted_respects_seed():
    a = cases.build_mesh("distorted", 4, seed=1)
    b = cases.build_mesh("distorted", 4, seed=2)
    assert (a.vertices != b.vertices).any()
