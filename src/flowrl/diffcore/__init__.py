"""Differentiation for the package's one network shape, plus optimizers and files.

``nn`` walks a GELU/LayerNorm MLP once for values, input JVPs and the
closed-form parameter VJP. A loss head returns a ``Loss``: its value,
the network's ``MlpTape`` and d(loss)/d(output), which ``backward`` carries
to the parameters. A ``ParamSet`` holds one network's parameters as one
read-only flat vector with named views; every writer makes a new set, and a
set centres its hidden weights once, on its first walk. ``Net`` is the base
class of every network: dims, parameters, spec, ``create``, ``with_params``
and the input-row check. ``save_params`` and ``load_params`` write and read a
set bit for bit in the package's one file format, ``flowrl.serialize``.
"""

from flowrl.diffcore.nn import (
    Leaf,
    Loss,
    MlpSpec,
    MlpTape,
    Net,
    ParamSet,
    backward,
    clone_params,
    init_mlp,
    load_params,
    mlp_forward,
    mlp_value,
    mlp_value_and_input_jvp,
    save_params,
)
from flowrl.diffcore.optim import AdamState, adam_step, ema_update

__all__ = [
    "Leaf", "Loss", "MlpSpec", "MlpTape", "Net", "ParamSet",
    "backward", "clone_params", "init_mlp",
    "mlp_forward", "mlp_value", "mlp_value_and_input_jvp",
    "AdamState", "adam_step", "ema_update",
    "load_params", "save_params",
]
