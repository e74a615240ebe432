"""Reference computations for the benchmark's output checks.

Everything here is restated from the formulas in entvec's README and module
docstrings with numpy alone; nothing imports entvec, so a fault in the
program cannot hide in its own check.
"""

from __future__ import annotations

import numpy as np

UNKDUP_SHIFT = 1.0


def sigmoid(x):
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def log_sigmoid(x):
    # log(1 / (1 + e^-x)) = -logaddexp(0, -x), exact in both tails
    return -np.logaddexp(0.0, -x)


def unkdup(raw, shift=UNKDUP_SHIFT):
    """The unk-dup reading [v - shift; -v - shift]."""
    return np.concatenate([raw - shift, -raw - shift], axis=-1)


def unkdup_bwd(hypo_raw, hyper_raw):
    """Backward score of hypo => hyper: sum_k sigma(-y_k) log sigma(-x_k)."""
    y, x = unkdup(hypo_raw), unkdup(hyper_raw)
    return np.sum(sigmoid(-y) * log_sigmoid(-x), axis=-1)


def acc50(scores, labels):
    """Accuracy with the top floor(n/2) scores predicted positive, ties by input order."""
    n = scores.size
    top = np.argsort(-scores, kind="stable")[: n // 2]
    predicted = np.zeros(n, dtype=np.int64)
    predicted[top] = 1
    return float(np.mean(predicted == labels))


def dir_acc(fwd, rev):
    """Share of positive pairs whose forward score beats the reverse; ties count half."""
    return float(np.mean((fwd > rev) + 0.5 * (fwd == rev)))


def folds(n, k, seed):
    """Test index sets of make_folds: seeded permutation split into k near-equal chunks."""
    perm = np.random.default_rng(seed).permutation(n)
    return [np.sort(chunk) for chunk in np.array_split(perm, k)]


def lexical_train_sets(pairs, test_sets):
    """Per fold, the training pairs that share no word with the fold's test pairs."""
    out = []
    for test in test_sets:
        test_words = {w for i in test for w in pairs[i][:2]}
        in_test = set(test.tolist())
        out.append([i for i in range(len(pairs))
                    if i not in in_test and not (set(pairs[i][:2]) & test_words)])
    return out


def neg_constants(x_src, x_tgt):
    """C_k = prod_{k' != k} (1 - sigma(-x_src,k') sigma(x_tgt,k')), rowwise.

    Prefix and suffix products, so a zero factor needs no special case.
    """
    f = 1.0 - sigmoid(-x_src) * sigmoid(x_tgt)
    ones = np.ones(f.shape[:-1] + (1,))
    before = np.cumprod(np.concatenate([ones, f[..., :-1]], axis=-1), axis=-1)
    after = np.cumprod(np.concatenate([ones, f[..., :0:-1]], axis=-1), axis=-1)[..., ::-1]
    return before * after


def graph_update(values, theta, pos, neg, clamp):
    """One Jacobi application of the mean-field update to every node.

    values: (n, d) current log-odds; pos, neg: (m, 2) edges (a, b) meaning
    "a entails b" and "a does not entail b".  A node gains -log sigma(-X_b)
    from each node b it entails and log sigma(X_a) from each node a that
    entails it; negative edges add the bounded corrections built from
    ``neg_constants``.  The result is clamped to +/-clamp.
    """
    new = theta.copy()
    a, b = pos[:, 0], pos[:, 1]
    np.add.at(new, a, -log_sigmoid(-values[b]))
    np.add.at(new, b, log_sigmoid(values[a]))
    if neg.size:
        a, b = neg[:, 0], neg[:, 1]
        c = neg_constants(values[a], values[b])
        with np.errstate(divide="ignore"):
            np.add.at(new, b, np.log1p(-c * sigmoid(values[a])) - np.log1p(-c))
            np.add.at(new, a, -(np.log1p(-c * sigmoid(-values[b])) - np.log1p(-c)))
    return np.clip(new, -clamp, clamp)
