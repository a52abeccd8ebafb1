"""Condense a 3-class Gaussian blob dataset down to one image per class.

The condensed set is learned by aligning class-wise feature averages
between real and synthetic batches at every layer of a small ConvNet,
plus a discrimination term that classifies real samples by inner
product with the synthetic class centers.

Run with: python demos/02_blob_condensation.py
"""

import time

from condensery.bilevel import CondenseConfig, run_condense
from condensery.data import make_blob_split
from condensery.evaluate import EvalConfig, evaluate_protocol
from condensery.models import ConvNetSpec

train, test = make_blob_split(num_classes=3, n_train=40, n_test=40,
                              shape=(1, 8, 8), spread=0.15, seed=0)
arch = ConvNetSpec(blocks=2, channels=4, input_shape=(1, 8, 8), num_classes=3)

cfg = CondenseConfig(ipc=1, n_per_class=16, gamma=5, l_out=5, l_in=10,
                     max_outer_iters=30, query_size=30, seed=0)

t0 = time.monotonic()


def progress(row):
    if row["iter"] % 10 == 0:
        print(f"iter {row['iter']:3d}  l_f {row['l_f']:8.4f}  l_d {row['l_d']:6.4f}  "
              f"query acc {row['query_acc']:.2f}")


synth = run_condense(train, arch, cfg, hook=progress)
print(f"condensed {len(train)} real images to {len(synth.labels)} "
      f"in {time.monotonic() - t0:.1f}s")

# Evaluate: train fresh networks on the 3 synthetic images only.
report = evaluate_protocol(synth, arch, test,
                           EvalConfig(epochs=60, lr=0.05, n_experiments=1, n_nets_per=3, seed=0))
print(f"test accuracy from 3 synthetic images: "
      f"{100 * report.mean:.1f} ± {100 * report.std:.1f}%")
