"""Train per-parent-node classifiers and compare the two top-down strategies.

The greedy strategy walks argmax edges from the root and may stop early on a
replicated-self class; the path-scoring strategy averages edge probabilities
over every root-to-node path and takes the best terminal.
"""

import numpy as np

from tehier import (
    KmerConfig,
    SvmConfig,
    SynthSpec,
    featurize_batch,
    generate,
    taxonomy_from_shape,
    train_hier,
)

taxonomy = taxonomy_from_shape([2, 3, 2], seed=1)
spec = SynthSpec(
    taxonomy=taxonomy,
    sequences_per_node=40,
    length_range=(300, 300),
    separability=0.9,
    internal_label_fraction=0.2,
    seed=11,
)
records = generate(spec)
X = featurize_batch(records, KmerConfig())
labels = [r.label for r in records]
print(f"dataset: {len(records)} sequences over {taxonomy}")

# the config's type chooses the base classifier
model = train_hier(X, labels, taxonomy, SvmConfig(C=16, gamma=8))
# node models are keyed by taxonomy node id, and their classes are node ids;
# a node with one class holds no model (constant), every other an SVM bank
names = ["root", *map(str, taxonomy.nodes())]
print("local models trained at: " + ", ".join(names[v] for v in sorted(model.node_models)))
for v, local in sorted(model.node_models.items()):
    kind = "constant" if local.model is None else "svm"
    print(f"  {names[v]}: classes {[names[c] for c in local.classes]} ({kind})")

greedy = model.predict(X, "nllcpn")
scored = model.predict(X, "lcpnb")
for name, pred in (("greedy", greedy), ("path-scored", scored)):
    accuracy = float(np.mean([p == t for p, t in zip(pred, labels)]))
    print(f"{name:12s} training-set exact-match: {accuracy:.3f}")

disagree = [i for i in range(len(records)) if greedy[i] != scored[i]]
print(f"strategies disagree on {len(disagree)} of {len(records)} samples")

sample = disagree[0] if disagree else 0
print(f"\npath-score table for {records[sample].id} (true {labels[sample]}):")
for entry in sorted(model.path_scores(X[sample]), key=lambda s: -s.score)[:6]:
    edges = ", ".join(f"{p:.3f}" for p in entry.edge_probabilities)
    print(f"  {str(entry.terminal):8s} score {entry.score:.3f}  edges [{edges}]")
