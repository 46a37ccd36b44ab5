"""Stratified cross-validation and the base x strategy comparison table."""

from tehier import (
    KmerConfig,
    LogRegConfig,
    SvmConfig,
    SynthSpec,
    crossval_strategies,
    featurize_batch,
    generate,
    stratified_kfold,
    taxonomy_from_shape,
)

taxonomy = taxonomy_from_shape([2, 3], seed=3)
spec = SynthSpec(
    taxonomy=taxonomy, sequences_per_node=40, length_range=(300, 300),
    separability=0.85, internal_label_fraction=0.15, seed=21,
)
records = generate(spec)
X = featurize_batch(records, KmerConfig())
labels = [r.label for r in records]

plan = stratified_kfold(labels, k=5, seed=0)
print(f"{len(records)} samples in {plan.k} stratified folds "
      f"(test sizes {[len(plan.test_indices(f)) for f in range(plan.k)]})")
if plan.warnings:
    print("warnings:", *plan.warnings, sep="\n  ")

print(f"\n{'base':8s} {'strategy':12s} {'hF':>7s} {'+-':>7s}")
for base, config in (("svm", SvmConfig(C=16, gamma=8)), ("logreg", LogRegConfig())):
    results = crossval_strategies(
        X, labels, taxonomy, config,
        strategies=("nllcpn", "lcpnb"), k=5, seed=1,
    )
    for strategy in ("nllcpn", "lcpnb"):
        r = results[strategy]
        print(f"{base:8s} {strategy:12s} {r.mean_hf:7.4f} {r.std_hf:7.4f}")
print("\n(training is shared across strategies within each fold, so the table")
print(" isolates exactly what the prediction rule changes)")
