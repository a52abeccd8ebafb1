"""Walk through the autodiff core on a few small graphs.

Run with: python demos/01_autodiff_basics.py
"""

import numpy as np

import condensery.tensor as T
from condensery.tensor import Tensor

# A tensor wraps a float64 array. Building ops records a graph;
# backward(root) walks it in reverse topological order and sets .grad on
# every leaf it reaches except a constant, which never gets a gradient.
x = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]))
y = Tensor.constant(np.array([[0.5, 0.5], [0.5, 0.5]]))
z = T.sum_all(T.mul(x, y))
T.backward(z)
print("d sum(x*y)/dx =\n", x.grad)   # equals y
print("y is a constant, so y.grad is", y.grad)

# Fan-out accumulates: using a tensor twice adds both contributions.
a = Tensor(np.array(3.0))
out = T.add(T.mul(a, a), a)          # a^2 + a, derivative 2a + 1 = 7
T.backward(out)
print("d(a^2 + a)/da =", a.grad)

# A one-block ConvNet end to end: conv, then the block op (instance norm,
# ReLU and 2x2 average pool as one tape node), then linear -> CE. The
# pool floors, so the 7x7 plane pools to 3x3. The images are only read.
rng = np.random.default_rng(0)
img = Tensor.constant(rng.standard_normal((2, 1, 7, 7)))
kernel = Tensor(rng.standard_normal((4, 1, 3, 3)) * 0.5)
kbias = Tensor(np.zeros(4))
w = Tensor(rng.standard_normal((4 * 3 * 3, 3)) * 0.1)
b = Tensor(np.zeros(3))

h = T.conv2d(img, kernel, kbias, pad=1)
h = T.norm_relu_pool(h)
print("pooled block output:", h.shape)
h = T.reshape(h, (2, 4 * 3 * 3))
logits = T.linear(h, w, b)
loss = T.softmax_cross_entropy_mean(logits, np.array([0, 2]))
T.backward(loss)
print("loss =", loss.item())
print("kernel grad norm =", np.linalg.norm(kernel.grad))

# One SGD step moves parameters against the gradient and clears it.
before = w.values.copy()
T.sgd_step([kernel, kbias, w, b], lr=0.1)
print("weight moved by", np.linalg.norm(w.values - before))
print("grads cleared:", w.grad is None)
