"""Kernels and model forwards take a leading batch axis and refuse input without one."""

import numpy as np
import pytest

from capsroute.capsnet import CapsNetParams, capsnet_forward, dynamic_routing, votes
from capsroute.cnn import CnnParams, cnn_forward
from capsroute.mlp import MlpParams, mlp_forward
from capsroute.tensor import Tensor, affine, conv2d, cross_entropy_logits, maxpool2d

RNG = np.random.default_rng(0)
CAPSNET = CapsNetParams.init(
    (12, 12), RNG, conv1_filters=2, conv1_kernel=3, conv2_filters=4, conv2_kernel=3, capsule_dim=4, secondary_dim=3, decoder_hidden=(6, 7)
)
CNN = CnnParams.init((8, 8), RNG, filters=(2, 3, 4), fc_hidden=5)
MLP = MlpParams.init((6, 6), RNG, hidden=4)


def zeros(*shape):
    return Tensor(np.zeros(shape))


# each call takes the leading axes of its input: (1,) for a batch of one, () for none
CALLS = {
    "conv2d": lambda lead: conv2d(zeros(*lead, 6, 6, 1), zeros(2, 1, 3, 3), zeros(2)),
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
