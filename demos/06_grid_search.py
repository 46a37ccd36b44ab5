"""Tune SVM cost and RBF width by cross-validated hierarchical F-measure."""

from tehier import (
    Grid,
    KmerConfig,
    SvmConfig,
    SynthSpec,
    featurize_batch,
    generate,
    grid_search,
    taxonomy_from_shape,
    train_hier,
)

taxonomy = taxonomy_from_shape([2, 3], seed=5)
spec = SynthSpec(
    taxonomy=taxonomy, sequences_per_node=30, length_range=(250, 250),
    separability=0.8, internal_label_fraction=0.1, seed=31,
)
records = generate(spec)
X = featurize_batch(records, KmerConfig())
labels = [r.label for r in records]

grid = Grid(
    c_values=(1.0, 16.0, 256.0),
    gamma_values=(1.0, 8.0, 64.0),
    folds=3,
    strategy="lcpnb",
    seed=0,
)
result = grid_search(X, labels, taxonomy, grid, threads=4)

print(f"{'C':>8s} {'gamma':>8s} {'mean hF':>9s} {'std':>7s}  status")
for cell in result.cells:
    hf = "  --  " if cell.mean_hf is None else f"{cell.mean_hf:9.4f}"
    std = "  --  " if cell.std_hf is None else f"{cell.std_hf:7.4f}"
    marker = " <== selected" if cell is result.selected else ""
    print(f"{cell.C:8g} {cell.gamma:8g} {hf} {std}  {cell.status}{marker}")

best = result.selected
model = train_hier(X, labels, taxonomy, SvmConfig(C=best.C, gamma=best.gamma))
print(f"\nfinal model trained on all {len(labels)} samples "
      f"with C={best.C:g}, gamma={best.gamma:g}")
print(f"local models: {len(model.node_models)}; "
      f"untrained nodes: {[str(n) for n in model.untrained_nodes] or 'none'}")
