"""The training-update contract that ``perfbench/workloads.py`` is written against.

Every loss returns ``(loss, tape, ...)``. An update reads ``loss.data`` (a
0-d float array), calls ``loss.backward()``, reads ``tape.params[name].grad``
(None meaning zero), then runs ``adam_step`` and ``ema_update``. The MLP
layer probe calls ``backward(mlp_forward(...), seed)``. The benchmark also
imports names from ``flowrl``; each of them must exist, and every keyword it
sets on a ``CriticConfig`` must name one of its fields. Every name in the
``__all__`` of ``flowrl.envs`` and ``flowrl.diffcore`` must exist too.
"""

import ast
import dataclasses
import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from flowrl.baselines import CategoricalCritic, QuantileCritic, c51_project_and_loss, \
    quantile_huber_loss
from flowrl.critic import CriticBatch, CriticConfig, ReturnField, value_flow_loss
from flowrl.diffcore import AdamState, adam_step, backward, clone_params, ema_update, \
    mlp_forward
from flowrl.policies import BcFlowPolicy, OneStepPolicy, bc_flow_loss, one_step_policy_loss

DS, DA = 3, 1
HIDDEN = (8, 8)
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def sampler(s_next, rng):
    return rng.choice([-1.0, 1.0], size=(s_next.shape[0], DA))


def make_batch(rng, n=6) -> CriticBatch:
    return CriticBatch(s=rng.normal(size=(n, DS)), a=sampler(np.zeros((n, DS)), rng),
                       r=rng.uniform(-1, 1, size=n), s_next=rng.normal(size=(n, DS)),
                       terminal=np.arange(n) % 2 == 0)


def loss_cases() -> dict:
    """name -> (network, loss call) for every loss a training loop steps on."""
    rng = np.random.default_rng(0)
    batch = make_batch(rng)
    cfg = CriticConfig(gamma=0.9, z_lo=-2.0, z_hi=2.0)
    flows = [ReturnField.create(DS, DA, rng, HIDDEN) for _ in range(2)]
    target = flows[0].with_params(clone_params(flows[0].params))
    c51 = CategoricalCritic.create(DS, DA, 11, cfg.z_lo, cfg.z_hi, rng, HIDDEN)
    iqn = QuantileCritic.create(DS, DA, rng, HIDDEN)
    bc = BcFlowPolicy.create(DS, DA, rng, HIDDEN)
    one = OneStepPolicy.create(DS, DA, rng, HIDDEN)
    return {
        "value_flow": (flows[0], lambda r: value_flow_loss(flows[0], target, sampler, batch,
                                                           cfg, r)),
        "c51": (c51, lambda r: c51_project_and_loss(c51, c51, sampler, batch, r, cfg.gamma)),
        "iqn": (iqn, lambda r: quantile_huber_loss(iqn, iqn, sampler, batch, r, cfg.gamma,
                                                   1.0, 8)),
        "bc_flow": (bc, lambda r: bc_flow_loss(bc, batch.s, batch.a, r)),
        "one_step": (one, lambda r: one_step_policy_loss(one, bc, flows, batch.s, 1.0, r, 10, 2)),
    }


@pytest.mark.parametrize("name", ["value_flow", "c51", "iqn", "bc_flow", "one_step"])
def test_update_path(name):
    net, loss_fn = loss_cases()[name]
    loss, tape = loss_fn(np.random.default_rng(1))[:2]
    assert loss.data.shape == () and np.isfinite(float(loss.data))
    assert all(leaf.grad is None for leaf in tape.params.values())
    loss.backward()
    grads = {k: leaf.grad if leaf.grad is not None else np.zeros_like(leaf.data)
             for k, leaf in tape.params.items()}
    assert set(grads) == set(net.params)
    assert all(grads[k].shape == net.params[k].shape for k in grads)
    assert any(np.any(g != 0.0) for g in grads.values())
    params, state = adam_step(net.params, grads, AdamState.for_params(net.params), 5e-3)
    assert state.step == 1
    target = ema_update(clone_params(net.params), params, 0.05)
    assert set(target) == set(net.params)


def test_seeded_backward_equals_loss_backward():
    for net, loss_fn in loss_cases().values():
        loss, tape = loss_fn(np.random.default_rng(2))[:2]
        loss.backward()
        x = tape.cache[0][0]      # the first layer's input is the network's input
        grads = backward(mlp_forward(net.params, x, net.spec), loss.output_grad)
        assert set(grads) == set(tape.params)
        for name, leaf in tape.params.items():
            assert np.array_equal(grads[name], leaf.grad)


def _flowrl_imports(path: Path):
    """(module, name, line) of every ``from flowrl... import name`` in a file."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "flowrl":
            for alias in node.names:
                yield node.module, alias.name, node.lineno


def test_every_name_the_benchmark_imports_exists():
    found = [(p.name, *imp) for p in sorted(PERFBENCH.glob("*.py")) for imp in _flowrl_imports(p)]
    assert found, "no flowrl import found under perfbench/"
    missing = [f"{file}:{line} from {module} import {name}"
               for file, module, name, line in found
               if not hasattr(importlib.import_module(module), name)
               and importlib.util.find_spec(f"{module}.{name}") is None]
    assert not missing, missing


@pytest.mark.parametrize("module", ["flowrl.envs", "flowrl.diffcore"])
def test_every_exported_name_exists(module):
    mod = importlib.import_module(module)
    assert len(set(mod.__all__)) == len(mod.__all__)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


def _config_keywords(path: Path):
    """(keyword, line) of every ``CriticConfig.for_env(...)`` or ``dataclasses.replace(...)``."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and (
                node.func.attr, getattr(node.func.value, "id", None)) in (
                ("for_env", "CriticConfig"), ("replace", "dataclasses")):
            yield from ((kw.arg, node.lineno) for kw in node.keywords)


def test_every_critic_config_keyword_the_benchmark_sets_is_a_field():
    fields = {f.name for f in dataclasses.fields(CriticConfig)}
    found = [(p.name, *kw) for p in sorted(PERFBENCH.glob("*.py")) for kw in _config_keywords(p)]
    assert found, "no CriticConfig keyword found under perfbench/"
    unknown = [f"{file}:{line} {name}=" for file, name, line in found if name not in fields]
    assert not unknown, unknown
