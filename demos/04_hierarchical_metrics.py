"""Hierarchical precision / recall / F-measure on worked examples."""

from tehier import Taxonomy, hier_metrics, parse_label

hl = parse_label
taxonomy = Taxonomy([hl("1.1.1"), hl("1.2"), hl("2")])

# each sample contributes its ancestor-closed label set: the node's row of
# ancestor ids, from depth 1 down to the node itself
print("label sets:")
for text in ("1.1.1", "1.2", "2"):
    v = taxonomy.ids([hl(text)])[0]
    row = taxonomy.ancestor_ids[v, 1 : taxonomy.node_depth[v] + 1]
    closure = sorted(str(taxonomy.node_labels[a]) for a in row)
    print(f"  {text:6s} -> {closure}")

# under-prediction: correct but shallow
pairs = [(hl("1.1"), hl("1.1.1"))]
m = hier_metrics(pairs, taxonomy)
print(f"\npredicted 1.1 for true 1.1.1: hP={m.hp:.3f} hR={m.hr:.3f} hF={m.hf:.3f}")
print("  (precision is perfect, recall pays for the missing level)")

# sibling confusion at depth 2
pairs = [(hl("1.2"), hl("1.1"))]
m = hier_metrics(pairs, taxonomy)
print(f"predicted 1.2 for true 1.1  : hP={m.hp:.3f} hR={m.hr:.3f} hF={m.hf:.3f}")
print(f"  level-wise: L1={m.per_level_f[0]} "
      f"L2={m.per_level_f[1]} (shared depth-1 node keeps L1 perfect)")

# a small batch mixing outcomes
pairs = [
    (hl("1.1.1"), hl("1.1.1")),  # exact
    (hl("1.1"), hl("1.1.1")),    # shallow
    (hl("2"), hl("1.2")),        # wrong branch
]
m = hier_metrics(pairs, taxonomy)
print(f"\nbatch of 3: hP={m.hp:.3f} hR={m.hr:.3f} hF={m.hf:.3f}")
levels = ", ".join(
    f"L{i + 1}={'NA' if v is None else f'{v:.3f}'}" for i, v in enumerate(m.per_level_f)
)
print(f"per-level F: {levels}")
