"""ConvNet and MLP forward passes with per-layer feature taps.

The ConvNet is a stack of Conv(3x3, stride 1, pad 1) -> InstanceNorm ->
ReLU -> AvgPool(2x2, non-overlapping) blocks followed by one linear output
layer; these are the only forms ``tensor.conv2d`` and ``tensor.avg_pool2d``
provide. A flattened feature tap is recorded after each block's pool; the
last tap is exactly the input to the output layer, and the tap list
excludes the output layer itself. The MLP mirrors this with taps after
each hidden ReLU.
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
        if H % (2 ** self.blocks) or W % (2 ** self.blocks):
            raise ConfigError(f"input {H}x{W} not divisible by 2^{self.blocks}")

    @property
    def embed_dim(self) -> int:
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


@dataclass
class FeaturePyramid:
    """Per-layer flattened feature matrices plus classifier logits."""
    per_layer: list          # L tensors of shape [B, C'_l]
    logits: Tensor           # [B, K]


def init_params(spec: ArchSpec, seed: int) -> ModelParams:
    """He-scaled Gaussian weights, zero biases, deterministic per seed."""
    rng = np.random.default_rng(seed)
    tensors = []
    if isinstance(spec, ConvNetSpec):
        c_in = spec.input_shape[0]
        for _ in range(spec.blocks):
            fan_in = c_in * 9
            k = rng.standard_normal((spec.channels, c_in, 3, 3)) * np.sqrt(2.0 / fan_in)
            tensors.append(Tensor(k))
            tensors.append(Tensor(np.zeros(spec.channels)))
            c_in = spec.channels
        d = spec.embed_dim
        tensors.append(Tensor(rng.standard_normal((d, spec.num_classes)) * np.sqrt(2.0 / d)))
        tensors.append(Tensor(np.zeros(spec.num_classes)))
    elif isinstance(spec, MLPSpec):
        d = spec.input_dim
        for h in spec.hidden:
            tensors.append(Tensor(rng.standard_normal((d, h)) * np.sqrt(2.0 / d)))
            tensors.append(Tensor(np.zeros(h)))
            d = h
        tensors.append(Tensor(rng.standard_normal((d, spec.num_classes)) * np.sqrt(2.0 / d)))
        tensors.append(Tensor(np.zeros(spec.num_classes)))
    else:
        raise ConfigError(f"unknown architecture spec {type(spec).__name__}")
    return ModelParams(spec, tensors)


def convnet_forward(params: ModelParams, batch: Tensor) -> FeaturePyramid:
    spec = params.spec
    if batch.shape[1:] != tuple(spec.input_shape):
        raise DimensionError(f"batch {batch.shape} vs input shape {spec.input_shape}")
    B = batch.shape[0]
    h = batch
    taps = []
    for b in range(spec.blocks):
        k, bias = params.tensors[2 * b], params.tensors[2 * b + 1]
        h = T.conv2d(h, k, bias, pad=1)
        h = T.instance_norm2d(h)
        h = T.relu(h)
        h = T.avg_pool2d(h, 2)
        taps.append(T.reshape(h, (B, int(np.prod(h.shape[1:])))))
    w, wb = params.tensors[-2], params.tensors[-1]
    logits = T.linear(taps[-1], w, wb)
    return FeaturePyramid(taps, logits)


def mlp_forward(params: ModelParams, batch: Tensor) -> FeaturePyramid:
    spec = params.spec
    B = batch.shape[0]
    h = batch if len(batch.shape) == 2 else T.reshape(batch, (B, int(np.prod(batch.shape[1:]))))
    if h.shape[1] != spec.input_dim:
        raise DimensionError(f"batch width {h.shape[1]} vs input dim {spec.input_dim}")
    taps = []
    for i in range(len(spec.hidden)):
        w, b = params.tensors[2 * i], params.tensors[2 * i + 1]
        h = T.relu(T.linear(h, w, b))
        taps.append(h)
    w, b = params.tensors[-2], params.tensors[-1]
    logits = T.linear(taps[-1], w, b)
    return FeaturePyramid(taps, logits)


def forward(params: ModelParams, batch: Tensor) -> FeaturePyramid:
    if isinstance(params.spec, ConvNetSpec):
        return convnet_forward(params, batch)
    if isinstance(params.spec, MLPSpec):
        return mlp_forward(params, batch)
    raise ConfigError(f"unknown architecture spec {type(params.spec).__name__}")
