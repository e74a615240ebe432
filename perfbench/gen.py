"""Seeded planted-taxonomy inputs for the entvec benchmark.

A planted taxonomy is a random tree in which every child knows all of its
parent's features plus a few more.  A feature is one raw dimension set to
+A or -A; unknown dimensions carry only noise, so under the unk-dup reading
a child's vector entails its ancestors' and not the other way round.  From
one tree the generator writes what each workload reads:

  eval-unsup, eval-mapped  vectors.bin (a word2vec binary table whose
                           vocabulary is mostly filler words) and pairs.tsv
  graph-taxonomy           taxonomy.graph plus graph.npz, the same graph as
                           arrays for the output checks
  embed-io                 table.txt plus table.npz, the exact tokens and
                           float32 rows the file holds

and expect.json with the counts and reference figures the checks compare
against.  Everything is computed here with numpy alone, never with entvec,
so the program under test sees only the files.

    python3 perfbench/gen.py --workload eval-unsup --seed 1 [--size small] --out DIR
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

import reference

# Inputs per workload and size.  "full" is what the benchmark times; "small"
# runs in about a second and is what selftest.py uses.
SIZES = {
    "full": {
        "eval-unsup": dict(vocab=100_000, dim=300, nodes=2000, pairs=2000, oov=20,
                           branching=(3, 6), root_features=4, step_features=3),
        "eval-mapped": dict(vocab=100_000, dim=300, nodes=1000, pairs=1200, oov=12,
                            branching=(3, 6), root_features=4, step_features=3,
                            folds=10, epochs=3, d_out=50),
        "graph-taxonomy": dict(nodes=3060, dim=30, branching=(4, 4), root_features=2,
                               step_features=3, roots=36, notentail=30, observed=216),
        "embed-io": dict(rows=6000, dim=150),
    },
    "small": {
        "eval-unsup": dict(vocab=3000, dim=40, nodes=300, pairs=600, oov=12,
                           branching=(3, 6), root_features=2, step_features=3),
        "eval-mapped": dict(vocab=3000, dim=40, nodes=300, pairs=600, oov=12,
                            branching=(3, 6), root_features=2, step_features=3,
                            folds=5, epochs=3, d_out=20),
        "graph-taxonomy": dict(nodes=150, dim=16, branching=(4, 4), root_features=2,
                               step_features=3, roots=4, notentail=4, observed=10),
        "embed-io": dict(rows=300, dim=10),
    },
}
WORKLOADS = tuple(SIZES["full"])

FEATURE = 3.0        # raw value of a known feature
NOISE = 0.4          # std of the noise on every raw coordinate
FILLER_NOISE = 1.0   # std of the filler words, which belong to no tree
GRAPH_KNOWN = 1.5    # prior log-odds of a known feature in the graph file
GRAPH_UNKNOWN = -1.5  # prior log-odds of an unknown feature
GRAPH_NOISE = 0.1    # std of the noise on the graph priors
GRAPH_OBSERVED = 4.0  # observed log-odds of a known feature
TOKEN_WIDTH = 8      # eval tables use fixed-width tokens: t<node>, f<row>, q<oov>


def plant_tree(rng, n_nodes, dim, branching, root_features, step_features, roots=1):
    """Random forest filled breadth first; returns parent and known-feature signs.

    Nodes 0..roots-1 are roots (parent -1).  ``signs[i, k]`` is +1 or -1
    when node i knows feature k, else 0.  Each child copies its parent's
    row and adds ``step_features`` dimensions its ancestors left unknown.
    """
    lo, hi = branching
    parent = np.full(n_nodes, -1, dtype=np.int64)
    signs = np.zeros((n_nodes, dim), dtype=np.int8)
    for r in range(roots):
        root_dims = rng.choice(dim, size=root_features, replace=False)
        signs[r, root_dims] = rng.choice((-1, 1), size=root_features)
    nxt = roots
    for node in range(n_nodes):
        if nxt >= n_nodes:
            break
        for _ in range(int(rng.integers(lo, hi + 1))):
            if nxt >= n_nodes:
                break
            parent[nxt] = node
            row = signs[node].copy()
            free = np.flatnonzero(row == 0)
            if free.size < step_features:
                raise ValueError(f"dim {dim} too small for the tree's depth")
            new = rng.choice(free, size=step_features, replace=False)
            row[new] = rng.choice((-1, 1), size=step_features)
            signs[nxt] = row
            nxt += 1
    return parent, signs


def ancestor_lists(parent):
    out = []
    for i in range(parent.size):
        chain = []
        j = parent[i]
        while j >= 0:
            chain.append(int(j))
            j = parent[j]
        out.append(chain)
    return out


def sample_pairs(rng, parent, n_pairs):
    """Balanced (hypo, hyper, label) node pairs, all distinct.

    Half are (descendant, ancestor) positives; the negatives are half
    reversed positives and half pairs where neither node is an ancestor of
    the other.
    """
    ancestors = ancestor_lists(parent)
    relations = [(i, a) for i in range(parent.size) for a in ancestors[i]]
    n_pos = n_pairs // 2
    n_rev = (n_pairs - n_pos) // 2
    n_unrel = n_pairs - n_pos - n_rev
    if n_pos + n_rev > len(relations):
        raise ValueError("tree has too few ancestor relations for the pair count")
    picked = rng.choice(len(relations), size=n_pos + n_rev, replace=False)
    pairs = [(*relations[k], 1) for k in picked[:n_pos]]
    pairs += [(relations[k][1], relations[k][0], 0) for k in picked[n_pos:]]
    anc_sets = [set(a) for a in ancestors]
    seen = {(h, g) for h, g, _ in pairs}
    while len(pairs) < n_pos + n_rev + n_unrel:
        h, g = (int(v) for v in rng.integers(parent.size, size=2))
        if h == g or g in anc_sets[h] or h in anc_sets[g] or (h, g) in seen:
            continue
        seen.add((h, g))
        pairs.append((h, g, 0))
    return [pairs[k] for k in rng.permutation(len(pairs))]


def _node_token(i):
    return f"t{i:0{TOKEN_WIDTH - 1}d}"


def _write_vectors(path, rng, vocab, dim, node_rows, node_vectors):
    """Word2vec binary table; node i's vector sits at row node_rows[i]."""
    record = np.dtype([("tok", f"S{TOKEN_WIDTH}"), ("sp", "S1"),
                       ("vec", "<f4", (dim,)), ("nl", "S1")])
    row_of_node = np.full(vocab, -1, dtype=np.int64)
    row_of_node[node_rows] = np.arange(node_rows.size)
    chunk = 20_000
    with open(path, "wb") as fh:
        fh.write(f"{vocab} {dim}\n".encode("ascii"))
        for start in range(0, vocab, chunk):
            stop = min(start + chunk, vocab)
            rec = np.empty(stop - start, dtype=record)
            rec["tok"] = [f"f{r:0{TOKEN_WIDTH - 1}d}".encode() for r in range(start, stop)]
            rec["sp"] = b" "
            rec["nl"] = b"\n"
            rec["vec"] = (FILLER_NOISE * rng.standard_normal((stop - start, dim),
                                                            dtype=np.float32))
            nodes = row_of_node[start:stop]
            here = np.flatnonzero(nodes >= 0)
            for r in here:
                rec["tok"][r] = _node_token(int(nodes[r])).encode()
            rec["vec"][here] = node_vectors[nodes[here]]
            rec.tofile(fh)


def gen_eval(out, rng, p, mapped):
    parent, signs = plant_tree(rng, p["nodes"], p["dim"], p["branching"],
                               p["root_features"], p["step_features"])
    vectors = (FEATURE * signs + NOISE * rng.standard_normal(signs.shape)).astype(np.float32)
    node_rows = rng.choice(p["vocab"], size=p["nodes"], replace=False)
    _write_vectors(os.path.join(out, "vectors.bin"), rng, p["vocab"], p["dim"],
                   node_rows, vectors)

    node_pairs = sample_pairs(rng, parent, p["pairs"])
    # p["oov"] pairs, at random places, get one word the table lacks.
    oov_at = set(rng.choice(len(node_pairs), size=p["oov"], replace=False).tolist())
    kept = []
    with open(os.path.join(out, "pairs.tsv"), "w", encoding="utf-8") as fh:
        for k, (h, g, label) in enumerate(node_pairs):
            hypo, hyper = _node_token(h), _node_token(g)
            if k in oov_at:
                oov = f"q{k:0{TOKEN_WIDTH - 1}d}"
                hypo, hyper = (oov, hyper) if k % 2 else (hypo, oov)
            else:
                kept.append((h, g, label))
            fh.write(f"{hypo}\t{hyper}\t{label}\n")

    expect = {"n": len(kept), "oov_dropped": p["oov"]}
    if not mapped:
        # kept pairs in file order, as the program scores them, so that
        # the stable tie-breaking of acc50 matches
        h_idx, g_idx, labels = (np.array(col) for col in zip(*kept))
        H = vectors[h_idx].astype(np.float64)
        G = vectors[g_idx].astype(np.float64)
        fwd = reference.unkdup_bwd(H, G)
        rev = reference.unkdup_bwd(G, H)
        dot = np.sum(H * G, axis=-1)
        pos = labels == 1
        expect["unkdup-bwd"] = {"acc50": reference.acc50(fwd, labels),
                                "dir_acc": reference.dir_acc(fwd[pos], rev[pos])}
        expect["dot"] = {"acc50": reference.acc50(dot, labels)}
    return expect


def gen_graph(out, rng, p):
    parent, signs = plant_tree(rng, p["nodes"], p["dim"], p["branching"],
                               p["root_features"], p["step_features"], p["roots"])
    n, dim = signs.shape
    theta = (np.where(signs != 0, GRAPH_KNOWN, GRAPH_UNKNOWN)
             + GRAPH_NOISE * rng.standard_normal((n, dim)))
    children = [[] for _ in range(n)]
    for i in np.flatnonzero(parent >= 0):
        children[parent[i]].append(int(i))
    leaves = np.array([i for i in range(n) if not children[i]])
    observed = np.sort(rng.choice(leaves, size=p["observed"], replace=False))
    families = [c for c in children if len(c) >= 2]
    neg = set()
    while len(neg) < p["notentail"]:
        fam = families[int(rng.integers(len(families)))]
        a, b = (int(v) for v in rng.choice(fam, size=2, replace=False))
        neg.add((a, b))
    neg = sorted(neg)
    pos = [(int(i), int(parent[i])) for i in np.flatnonzero(parent >= 0)]

    priors = [" ".join(f"{v:.6f}" for v in row) for row in theta]
    # theta as the file states it, so the checks see what the solver sees
    theta = np.array([[float(v) for v in row.split()] for row in priors])
    obs_values = np.where(signs[observed] != 0, GRAPH_OBSERVED, theta[observed])
    lines = [f"# planted taxonomy: {n} nodes, dim {dim}\n"]
    lines += [f"node v{i} {dim} {row}\n" for i, row in enumerate(priors)]
    lines += [f"entail v{a} v{b}\n" for a, b in pos]
    lines += [f"notentail v{a} v{b}\n" for a, b in neg]
    lines += [f"observe v{i} {k} {GRAPH_OBSERVED:.1f}\n"
              for i in observed for k in np.flatnonzero(signs[i])]
    with open(os.path.join(out, "taxonomy.graph"), "w", encoding="utf-8") as fh:
        fh.writelines(lines)
    np.savez(os.path.join(out, "graph.npz"), theta=theta,
             pos=np.array(pos, dtype=np.int64).reshape(-1, 2),
             neg=np.array(neg, dtype=np.int64).reshape(-1, 2),
             observed=observed, obs_values=obs_values)
    return {"nodes": n, "free": n - observed.size, "dim": dim}


# Tokens mix ASCII with multi-byte UTF-8 so both formats must keep every byte.
_STEMS = ("cat", "dog", "tree", "naïve", "über", "λόγος", "数据", "café", "x")


def gen_embed_io(out, rng, p):
    rows, dim = p["rows"], p["dim"]
    tokens = [f"{_STEMS[i % len(_STEMS)]}_{i}" for i in range(rows)]
    tokens = [tokens[i] for i in rng.permutation(rows)]
    matrix = rng.standard_normal((rows, dim)).astype(np.float32)
    matrix *= np.float32(10.0) ** rng.integers(-3, 4, size=(rows, 1)).astype(np.float32)
    # values whose bits a lossy round trip would change
    special = np.array([0.0, -0.0, 1e-45, -3.4028235e38, 1.1754944e-38, 0.1],
                       dtype=np.float32)
    matrix[0, :special.size] = special[:dim]
    with open(os.path.join(out, "table.txt"), "w", encoding="utf-8") as fh:
        fh.write(f"{rows} {dim}\n")
        for tok, row in zip(tokens, matrix):
            fh.write(tok + " " + " ".join(f"{float(v):.9g}" for v in row) + "\n")
    np.savez(os.path.join(out, "table.npz"), tokens=np.array(tokens), matrix=matrix)
    return {"rows": rows, "dim": dim}


def generate(workload, seed, size, out):
    """Write the inputs of one workload into ``out`` (which must exist)."""
    p = SIZES[size][workload]
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload in ("eval-unsup", "eval-mapped"):
        expect = gen_eval(out, rng, p, mapped=workload == "eval-mapped")
    elif workload == "graph-taxonomy":
        expect = gen_graph(out, rng, p)
    else:
        expect = gen_embed_io(out, rng, p)
    expect.update(workload=workload, seed=seed, size=size, params=p)
    with open(os.path.join(out, "expect.json"), "w", encoding="utf-8") as fh:
        json.dump(expect, fh, indent=1)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", default="full", choices=tuple(SIZES))
    ap.add_argument("--out", required=True, help="directory to fill (created)")
    args = ap.parse_args(argv)
    os.makedirs(args.out, exist_ok=True)
    generate(args.workload, args.seed, args.size, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
