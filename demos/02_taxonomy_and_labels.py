"""Hierarchy labels and taxonomy structure, including the bundled tree."""

from tehier import build_from_labels, parse_label, wicker_taxonomy

# dot-path labels encode the root-to-node path
copia = parse_label("1.1.1")
print(f"label {copia}: depth {copia.depth}, ancestors {[str(a) for a in copia.prefixes()]}")

# a taxonomy is induced from observed labels by prefix closure
labels = [parse_label(t) for t in ["1.1.1", "1.1.2", "1.2", "2.1", "2.1.1"]]
taxonomy = build_from_labels(labels)
print(f"\ninduced taxonomy: {taxonomy}")
for node in taxonomy.nodes():
    print("  " + " -> ".join(str(n) for n in [*node.prefixes(), node]))

# the bundled transcription of the unified TE classification
wicker = wicker_taxonomy()
print(f"\nbundled tree: {wicker}")
print("depth-1 classes:", ", ".join(wicker.names[n] for n in wicker.roots))
ltr = parse_label("1.1")
children = wicker.children(ltr)
print(f"{wicker.names[ltr]} superfamilies: "
      + ", ".join(wicker.names[c] for c in children))
print(f"leaves: {len(wicker.leaves())}, internal: {len(wicker.internal_nodes())}")
