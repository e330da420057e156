"""The agreement tolerance is an argument of `verify` and of nothing else:
S matrices are labels and entries, and every builder is a function of k."""

import argparse
import dataclasses
import inspect

import pytest

from parafermions import cli
from parafermions import coset as co
from parafermions import fullcft as fc
from parafermions import fusion as fu
from parafermions import smatrix as sm

BUILDERS = (sm.s_su2k, sm.s_suk2_weylkac, sm.s_suk2_compact,
            co.coset_s_compact, co.coset_s_phase_form, co.s_u1_2k,
            co.coset_s_via_su2k_u1, fc.s_u1, fc.full_s_product,
            fc.full_s_compact)


def _parameters(func):
    return list(inspect.signature(func).parameters)


@pytest.mark.parametrize("which", sorted(cli._SMATRIX_BUILDERS))
def test_cli_builders_take_k_alone(which):
    assert _parameters(cli._SMATRIX_BUILDERS[which]) == ["k"]


@pytest.mark.parametrize("build", BUILDERS, ids=lambda f: f.__name__)
def test_builders_take_k_alone(build):
    assert _parameters(build) == ["k"]


def test_other_signatures():
    assert _parameters(sm.simple_current_extend) == ["representative_row", "k"]
    assert _parameters(fu.verlinde) == ["s"]
    assert _parameters(fu._verlinde_block) == ["s", "vac"]


def test_smatrix_is_labels_and_entries():
    assert [f.name for f in dataclasses.fields(sm.SMatrix)] == ["labels",
                                                                "entries"]
    assert "tolerance" not in [f.name for f in
                               dataclasses.fields(fu.ModularReport)]


def test_tolerance_is_a_verify_option_only():
    sub, = [a for a in cli.build_parser()._actions
            if isinstance(a, argparse._SubParsersAction)]
    takes = {name for name, parser in sub.choices.items()
             if "--tolerance" in parser._option_string_actions}
    assert takes == {"verify"}
