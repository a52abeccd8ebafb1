"""Compare the four selection baselines on the same blob dataset.

Each method picks real images per class instead of synthesizing
pixels; the resulting subsets are evaluated with the same
train-on-subset protocol.

Run with: python demos/03_coreset_comparison.py
"""

from condensery.coreset import materialize, select_forgetting, select_herding, \
    select_kcenter, select_random
from condensery.data import make_blob_split
from condensery.evaluate import EvalConfig, evaluate_protocol, record_training_trace
from condensery.models import ConvNetSpec

train, test = make_blob_split(num_classes=3, n_train=40, n_test=40,
                              shape=(1, 8, 8), spread=0.4, seed=0)
arch = ConvNetSpec(blocks=2, channels=4, input_shape=(1, 8, 8), num_classes=3)
ipc = 2

selections = {
    "random": select_random(train, ipc, seed=0),
    "herding": select_herding(train, ipc),
    "kcenter": select_kcenter(train, ipc),
}
trace = record_training_trace(train, arch, EvalConfig(epochs=8, lr=0.05), seed=0)
selections["forgetting"] = select_forgetting(train, ipc, trace)

ecfg = EvalConfig(epochs=60, lr=0.05, n_experiments=1, n_nets_per=3, seed=0)
print(f"{'method':<12} {'indices':<28} accuracy")
for name, sel in selections.items():
    subset = materialize(train, sel)
    report = evaluate_protocol(subset, arch, test, ecfg)
    print(f"{name:<12} {str([int(i) for i in sel.indices]):<28} "
          f"{100 * report.mean:.1f} ± {100 * report.std:.1f}%")
