"""Hierarchy labels and taxonomy structure, including the bundled tree."""

from tehier import Taxonomy, parse_label, wicker_taxonomy

# a taxonomy is induced from observed labels by prefix closure; it holds the
# tree as arrays of node ids (0 is the root, the rest preorder)
labels = [parse_label(t) for t in ["1.1.1", "1.1.2", "1.2", "2.1", "2.1.1"]]
taxonomy = Taxonomy(labels)


def root_path(tax, v):
    """The labels from depth 1 down to node v, read off its ancestor-id row."""
    return [str(tax.node_labels[a]) for a in tax.ancestor_ids[v, 1 : tax.node_depth[v] + 1]]


# dot-path labels encode the root-to-node path
copia = root_path(taxonomy, taxonomy.ids([labels[0]])[0])
print(f"label {labels[0]}: depth {len(copia)}, ancestors {copia[:-1]}")

print(f"\ninduced taxonomy: {taxonomy}")
for v in range(1, len(taxonomy) + 1):
    print("  " + " -> ".join(root_path(taxonomy, v)))

# the bundled transcription of the unified TE classification
wicker = wicker_taxonomy()
print(f"\nbundled tree: {wicker}")
print("depth-1 classes:",
      ", ".join(wicker.names[wicker.node_labels[c]] for c in wicker.child_ids[0]))
ltr = parse_label("1.1")
children = wicker.child_ids[wicker.ids([ltr])[0]]
print(f"{wicker.names[ltr]} superfamilies: "
      + ", ".join(wicker.names[wicker.node_labels[c]] for c in children))
leaves = sum(not kids for kids in wicker.child_ids)
print(f"leaves: {leaves}, internal: {len(wicker) - leaves}")
