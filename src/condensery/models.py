"""ConvNet and MLP networks with per-layer feature taps, on one skeleton.

The ConvNet's body is a stack of Conv(3x3, stride 1, pad 1) ->
InstanceNorm -> ReLU -> AvgPool(2x2, flooring) blocks (Zhao et al., ICLR
2021, as CAFE uses), one ``tensor.conv_block`` call, one kernel (no conv
bias: the norm would cancel it) and one flattened tap each, so 28x28
pools to 14, 7 and 3. The MLP's body flattens its input and taps each
hidden ReLU. Both then end in one linear output layer applied to the
last tap; the tap list excludes the output layer itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

import numpy as np

from . import tensor as T
from .errors import ConfigError, DimensionError
from .tensor import Tensor


@dataclass
class ConvNetSpec:
    blocks: int = 3
    channels: int = 128
    input_shape: tuple = (1, 28, 28)   # (C, H, W)
    num_classes: int = 10

    def __post_init__(self):
        C, H, W = self.input_shape
        if self.blocks < 1 or self.channels < 1:
            raise ConfigError("blocks and channels must be >= 1")
        if min(H, W) < 2 ** self.blocks:
            raise ConfigError(f"input {H}x{W}: {self.blocks} 2x2 pools need each side >= {2 ** self.blocks}")

    @property
    def embed_dim(self) -> int:
        # floor(floor(H / 2) / 2) ... equals H // 2**blocks
        C, H, W = self.input_shape
        f = 2 ** self.blocks
        return self.channels * (H // f) * (W // f)


@dataclass
class MLPSpec:
    input_shape: tuple = (1, 28, 28)
    hidden: tuple = (128, 128)
    num_classes: int = 10

    def __post_init__(self):
        if not self.hidden or min(self.hidden) < 1:
            raise ConfigError("hidden must hold at least one width, each >= 1")

    @property
    def input_dim(self) -> int:
        return int(np.prod(self.input_shape))


ArchSpec = Union[ConvNetSpec, MLPSpec]


@dataclass
class ModelParams:
    spec: ArchSpec
    tensors: list = field(default_factory=list)   # ordered parameter tensors

    def constants(self) -> "ModelParams":
        """This network with each weight wrapped as a constant, so a forward
        through it records no tape. It wraps the weights' own arrays, so it
        costs one Tensor per weight and callers build it for each read."""
        return ModelParams(self.spec, [Tensor.constant(t.values) for t in self.tensors])


@dataclass
class FeaturePyramid:
    """Per-layer flattened feature matrices plus classifier logits."""
    per_layer: list          # L tensors of shape [B, C'_l]
    logits: Tensor           # [B, K]


def init_params(spec: ArchSpec, seed: int) -> ModelParams:
    """He-scaled Gaussian weights, zero biases, deterministic per seed: the
    ConvNet's kernels block by block, then a weight and a bias for each pair
    of consecutive dense widths, (embed_dim, num_classes) for the ConvNet
    and (input_dim, *hidden, num_classes) for the MLP."""
    rng = np.random.default_rng(seed)
    tensors = []
    if isinstance(spec, ConvNetSpec):
        c_in = spec.input_shape[0]
        for _ in range(spec.blocks):
            tensors.append(Tensor(rng.standard_normal((spec.channels, c_in, 3, 3))
                                  * np.sqrt(2.0 / (c_in * 9))))
            c_in = spec.channels
        widths = (spec.embed_dim, spec.num_classes)
    else:
        widths = (spec.input_dim, *spec.hidden, spec.num_classes)
    for d, h in zip(widths, widths[1:]):
        tensors += [Tensor(rng.standard_normal((d, h)) * np.sqrt(2.0 / d)), Tensor(np.zeros(h))]
    return ModelParams(spec, tensors)


def forward(params: ModelParams, batch: Tensor) -> FeaturePyramid:
    """The body's feature taps, then the output layer on the last tap."""
    spec = params.spec
    B = batch.shape[0]
    taps = []
    if isinstance(spec, ConvNetSpec):
        if batch.shape[1:] != tuple(spec.input_shape):
            raise DimensionError(f"batch {batch.shape} vs input shape {spec.input_shape}")
        h = batch
        for k in params.tensors[:spec.blocks]:
            h = T.conv_block(h, k)
            taps.append(T.reshape(h, (B, int(np.prod(h.shape[1:])))))
    else:
        h = T.reshape(batch, (B, int(np.prod(batch.shape[1:]))))
        if h.shape[1] != spec.input_dim:
            raise DimensionError(f"batch width {h.shape[1]} vs input dim {spec.input_dim}")
        hidden = params.tensors[:-2]
        for w, b in zip(hidden[::2], hidden[1::2]):
            h = T.relu(T.linear(h, w, b))
            taps.append(h)
    w, b = params.tensors[-2:]
    return FeaturePyramid(taps, T.linear(taps[-1], w, b))
