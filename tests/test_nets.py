"""The ``diffcore.Net`` contract every network of the package shares.

Each case builds one of the five networks and calls it through its public
entry point on a state batch ``s`` and an action-shaped batch ``a`` (the
action itself, or the policy's action noise): the rows of the two must agree,
except that one row broadcasts.
"""

import numpy as np
import pytest

from flowrl.baselines import CategoricalCritic, QuantileCritic
from flowrl.critic import ReturnField
from flowrl.diffcore import Net, ParamSet
from flowrl.errors import ContractError
from flowrl.policies import BcFlowPolicy, OneStepPolicy, sample_bc_action

DS, DA = 3, 2
HIDDEN = (8, 8)
U = np.array([[0.2, 0.5, 0.9]])     # IQN fractions, one row shared by every (s, a) row

CASES = {
    "flow": (lambda rng: ReturnField.create(DS, DA, rng, HIDDEN),
             lambda net, s, a: net.velocity(0.3, 0.5, s, a)),
    "c51": (lambda rng: CategoricalCritic.create(DS, DA, 7, -1.0, 1.0, rng, HIDDEN),
            lambda net, s, a: net.probs(s, a)),
    "iqn": (lambda rng: QuantileCritic.create(DS, DA, rng, HIDDEN),
            lambda net, s, a: net.quantiles(s, a, U)),
    "bc": (lambda rng: BcFlowPolicy.create(DS, DA, rng, HIDDEN),
           lambda net, s, a: sample_bc_action(net, s, a, 3)),
    "one_step": (lambda rng: OneStepPolicy.create(DS, DA, rng, HIDDEN),
                 lambda net, s, a: net.act(s, a)),
}


@pytest.fixture(params=list(CASES))
def case(request):
    make, call = CASES[request.param]
    return make(np.random.default_rng(0)), call


def batch(rows_s, rows_a, ds=DS, da=DA):
    rng = np.random.default_rng(1)
    return rng.normal(size=(rows_s, ds)), rng.uniform(-1.0, 1.0, size=(rows_a, da))


def test_with_params_keeps_class_dims_spec_and_extras_and_leaves_the_original(case):
    net, _ = case
    assert isinstance(net, Net)
    original, before = net.params, net.params.flat.copy()
    params = net.params.with_flat(net.params.flat + 1.0)
    other = net.with_params(params)
    assert type(other) is type(net) and other.params is params
    assert (other.state_dim, other.action_dim, other.spec) == (DS, DA, net.spec)
    if isinstance(net, CategoricalCritic):
        assert np.array_equal(other.support, net.support)
    assert net.params is original and np.array_equal(net.params.flat, before)


def test_a_mapping_given_as_params_is_copied_into_a_set(case):
    net, _ = case
    arrays = {k: v + 1.0 for k, v in net.params.items()}
    other = net.with_params(arrays)
    assert isinstance(other.params, ParamSet) and list(other.params) == list(arrays)
    assert all(np.array_equal(other.params[k], arrays[k]) for k in arrays)
    arrays["b0"][0] = 9.0    # the set holds its own copy
    assert other.params["b0"][0] != 9.0


@pytest.mark.parametrize("shapes", [
    ((3, DS), (2, DA)),             # row counts that disagree
    ((2, DS - 1), (2, DA)),         # a state of the wrong width
    ((2, DS), (2, DA + 1)),         # an action (or action noise) of the wrong width
    ((DS, 1), (1, DA)),             # a column in place of one state row
])
def test_row_count_or_width_mismatch_raises_contract_error(case, shapes):
    net, call = case
    (rs, ws), (ra, wa) = shapes
    s, a = batch(rs, ra, ws, wa)
    with pytest.raises(ContractError):
        call(net, s, a)


def test_one_row_broadcasts_bit_for_bit(case):
    net, call = case
    s, a = batch(1, 4)
    want = call(net, np.repeat(s, 4, axis=0), a)
    for one_row in (s, s[0]):
        assert np.array_equal(call(net, one_row, a), want)
    s, a = batch(4, 1)
    assert np.array_equal(call(net, s, a[0]), call(net, s, np.repeat(a, 4, axis=0)))


def test_rows_lay_their_blocks_side_by_side_over_the_broadcast_leading_axes():
    rng = np.random.default_rng(2)
    m, n, k = 3, 4, 5
    noises, z, t, u = rng.normal(size=m), rng.normal(size=(2, n)), rng.random(n), rng.random((n, k))
    s, a = batch(n, n)
    layouts = {
        # noise-major: row j * n + i pairs noise j with row i of s and a
        "noise": (Net._rows((noises[:, None, None], 1), (np.zeros((1, 1, 1)), 1), (s[None], DS),
                            (a[None], DA)),
                  np.concatenate([np.repeat(noises, n)[:, None], np.zeros((m * n, 1)),
                                  np.tile(s, (m, 1)), np.tile(a, (m, 1))], axis=1)),
        # batch x fraction: row i * k + j pairs row i of s and a with u[i, j]
        "fraction": (Net._rows((s[:, None], DS), (a[:, None], DA), (u[:, :, None], 1)),
                     np.concatenate([np.repeat(s, k, axis=0), np.repeat(a, k, axis=0),
                                     u.reshape(-1, 1)], axis=1)),
        # term-major: row j * n + i pairs term j's z with row i of t, s and a
        "term": (Net._rows((z[:, :, None], 1), (t[None, :, None], 1), (s[None], DS),
                           (a[None], DA)),
                 np.concatenate([z.reshape(-1, 1), np.tile(t, 2)[:, None], np.tile(s, (2, 1)),
                                 np.tile(a, (2, 1))], axis=1)),
    }
    for name, (got, want) in layouts.items():
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), name


@pytest.mark.parametrize("shapes", [
    ((2, 1, DS), (2, DA)),              # axis counts that disagree
    ((2, 3, DS), (2, 3, DA + 1)),       # a wrong width
    ((2, 3, DS), (3, 3, DA)),           # first leading sizes that disagree
    ((1, 3, DS), (2, 4, DA)),           # second leading sizes that disagree
])
def test_rows_of_blocks_that_disagree_raise_contract_error(shapes):
    with pytest.raises(ContractError):
        Net._rows((np.zeros(shapes[0]), DS), (np.zeros(shapes[1]), DA))
