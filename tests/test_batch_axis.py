"""Kernels and model forwards take a leading batch axis and refuse input without one."""

import numpy as np
import pytest

from capsroute.capsnet import capsnet_forward, dynamic_routing, votes
from capsroute.cnn import cnn_forward
from capsroute.mlp import mlp_forward
from capsroute.tensor import Tensor, affine, conv2d, cross_entropy_logits, maxpool2d
from reduced import reduced_capsnet, reduced_cnn, reduced_mlp

RNG = np.random.default_rng(0)
CAPSNET = reduced_capsnet((12, 12), RNG)
CNN = reduced_cnn((8, 8), RNG)
MLP = reduced_mlp((6, 6), RNG, hidden=4)


def zeros(*shape):
    return Tensor(np.zeros(shape))


# each call takes the leading axes of its input: (1,) for a batch of one, () for none
CALLS = {
    "conv2d": lambda lead: conv2d(zeros(*lead, 6, 6, 1), zeros(2, 3, 3, 1), zeros(2)),
    "maxpool2d": lambda lead: maxpool2d(zeros(*lead, 4, 4, 1), (2, 2), stride=2),
    "affine": lambda lead: affine(zeros(*lead, 3), zeros(2, 3), zeros(2)),
    "cross_entropy_logits": lambda lead: cross_entropy_logits(zeros(*lead, 2), np.zeros(lead, dtype=np.int64)),
    "votes": lambda lead: votes(zeros(*lead, 5, 4), zeros(5, 2, 3, 4)),
    "dynamic_routing": lambda lead: dynamic_routing(zeros(*lead, 5, 2, 3)),
    "capsnet_forward": lambda lead: capsnet_forward(np.zeros((*lead, 12, 12)), CAPSNET, np.zeros(lead, dtype=np.int64)),
    "cnn_forward": lambda lead: cnn_forward(np.zeros((*lead, 8, 8)), CNN),
    "mlp_forward": lambda lead: mlp_forward(np.zeros((*lead, 6, 6)), MLP),
}


@pytest.mark.parametrize("call", CALLS.values(), ids=CALLS.keys())
def test_unbatched_input_raises(call):
    call((1,))
    with pytest.raises(ValueError):
        call(())
