"""Branch/trunk operator surrogate with hand-rolled backprop training.

The surrogate factorizes an operator into an encoder E (pointwise readout of
the input field at fixed nodes), a branch MLP mapping the encoded vector to p
coefficients, and a trunk MLP mapping a query point to p basis values:

    out(u, x) = sum_i branch_i(E u) trunk_i(x) + bias0

optionally followed by a fixed affine calibration ``out_shift + out_scale *``
set from training-target statistics (defaults 0 / 1 leave raw outputs).  Both
MLPs use tanh hidden layers and a linear output layer.  Training minimizes
the mean squared error over all (sample, query) pairs with Adam; gradients
come from explicit reverse-mode formulas, so they can be validated against
finite differences.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np


class TrainingError(RuntimeError):
    """Optimization failed (non-finite loss or no descent)."""


@dataclass(frozen=True)
class NetArch:
    """Layer widths of the branch and trunk MLPs (input ... output)."""

    branch: tuple
    trunk: tuple

    def __post_init__(self):
        object.__setattr__(self, "branch", tuple(int(w) for w in self.branch))
        object.__setattr__(self, "trunk", tuple(int(w) for w in self.trunk))
        for name, widths in (("branch", self.branch), ("trunk", self.trunk)):
            if len(widths) < 2:
                raise ValueError(f"{name} needs at least input and output widths")
            if any(w < 1 for w in widths):
                raise ValueError(f"{name} widths must be positive")
        if self.branch[-1] != self.trunk[-1]:
            raise ValueError("branch and trunk must share the output width p")

    @property
    def p(self) -> int:
        return self.branch[-1]


def _init_mlp(widths, rng) -> list:
    params = []
    for n_in, n_out in zip(widths[:-1], widths[1:]):
        scale = np.sqrt(2.0 / (n_in + n_out))
        params.append((scale * rng.standard_normal((n_in, n_out)), np.zeros(n_out)))
    return params


def _mlp_forward(params, x):
    """Returns the list of layer activations, acts[0] = x, acts[-1] = output."""
    acts = [x]
    last = len(params) - 1
    for k, (W, b) in enumerate(params):
        z = acts[-1] @ W + b
        acts.append(z if k == last else np.tanh(z))
    return acts

def _mlp_backward(params, acts, d_out):
    """Gradients of all (W, b) given d loss / d output; reverse order fixed up."""
    grads = [None] * len(params)
    d = d_out
    for k in range(len(params) - 1, -1, -1):
        W, _ = params[k]
        if k != len(params) - 1:
            d = d * (1.0 - acts[k + 1] ** 2)  # tanh'
        grads[k] = (acts[k].T @ d, d.sum(axis=0))
        d = d @ W.T
    return grads


def _pack(branch_grads, trunk_grads, d_bias0):
    flat = [g.ravel() for W, b in branch_grads for g in (W, b)]
    flat += [g.ravel() for W, b in trunk_grads for g in (W, b)]
    flat.append(np.array([d_bias0]))
    return np.concatenate(flat)


class Surrogate:
    """Trained operator network plus its calibration and training history."""

    def __init__(self, arch: NetArch, branch_params, trunk_params, bias0: float = 0.0,
                 out_shift: float = 0.0, out_scale: float = 1.0):
        self.arch = arch
        self.branch_params = branch_params
        self.trunk_params = trunk_params
        self.bias0 = float(bias0)
        self.out_shift = float(out_shift)
        self.out_scale = float(out_scale)
        self.train_log: list = []
        self.iters_done = 0

    @classmethod
    def init(cls, arch: NetArch, rng, out_shift: float = 0.0, out_scale: float = 1.0):
        rng = np.random.default_rng(rng)
        return cls(arch, _init_mlp(arch.branch, rng), _init_mlp(arch.trunk, rng),
                   0.0, out_shift, out_scale)

    # -- evaluation ---------------------------------------------------------

    def branch_values(self, inputs: np.ndarray) -> np.ndarray:
        return _mlp_forward(self.branch_params, np.atleast_2d(inputs))[-1]

    def trunk_values(self, queries: np.ndarray) -> np.ndarray:
        return _mlp_forward(self.trunk_params, np.atleast_2d(queries))[-1]

    def eval(self, inputs: np.ndarray, queries: np.ndarray) -> np.ndarray:
        """Surrogate outputs, shape (n_samples, n_queries)."""
        raw = self.branch_values(inputs) @ self.trunk_values(queries).T + self.bias0
        return self.out_shift + self.out_scale * raw

    # -- flat weight vector ---------------------------------------------------

    def get_weights(self) -> np.ndarray:
        return _pack(self.branch_params, self.trunk_params, self.bias0)

    def set_weights(self, flat: np.ndarray) -> None:
        flat = np.asarray(flat, dtype=float)
        if flat.size != self.n_weights:
            raise ValueError(f"expected {self.n_weights} weights, got {flat.size}")
        k = 0

        def take(shape):
            nonlocal k
            n = int(np.prod(shape))
            out = flat[k:k + n].reshape(shape)
            k += n
            return out

        for params in (self.branch_params, self.trunk_params):
            for i, (W, b) in enumerate(params):
                params[i] = (take(W.shape).copy(), take(b.shape).copy())
        self.bias0 = float(flat[k])

    @property
    def n_weights(self) -> int:
        n = sum(W.size + b.size for W, b in self.branch_params)
        n += sum(W.size + b.size for W, b in self.trunk_params)
        return n + 1

    # -- persistence ------------------------------------------------------------

    def save(self, stem) -> None:
        """Write <stem>.json (metadata) and <stem>.bin (weights, <f8)."""
        stem = str(stem)
        meta = {
            "arch": {"branch": list(self.arch.branch), "trunk": list(self.arch.trunk)},
            "out_shift": self.out_shift,
            "out_scale": self.out_scale,
            "iters_done": self.iters_done,
            "n_weights": self.n_weights,
            "train_log": [[int(i), float(v)] for i, v in self.train_log],
        }
        with open(stem + ".json", "w") as fh:
            json.dump(meta, fh, indent=1, sort_keys=True)
        with open(stem + ".bin", "wb") as fh:
            fh.write(self.get_weights().astype("<f8").tobytes())

    @classmethod
    def load(cls, stem):
        stem = str(stem)
        with open(stem + ".json") as fh:
            meta = json.load(fh)
        arch = NetArch(tuple(meta["arch"]["branch"]), tuple(meta["arch"]["trunk"]))
        s = cls.init(arch, 0, meta["out_shift"], meta["out_scale"])
        flat = np.fromfile(stem + ".bin", dtype="<f8")
        if flat.size != meta["n_weights"]:
            raise ValueError("checkpoint weight count mismatch")
        s.set_weights(flat)
        s.train_log = [(int(i), float(v)) for i, v in meta["train_log"]]
        s.iters_done = int(meta["iters_done"])
        return s


# ---------------------------------------------------------------------------
# encoders


def encoder_indices(grid, per_axis: int) -> np.ndarray:
    """Flat node indices of a near-uniform per_axis x per_axis sub-lattice."""
    if per_axis < 1 or per_axis > min(grid.nx, grid.ny):
        raise ValueError("per_axis must be in [1, min(nx, ny)]")
    ix = np.round(np.linspace(0, grid.nx - 1, per_axis)).astype(int)
    iy = np.round(np.linspace(0, grid.ny - 1, per_axis)).astype(int)
    return (ix[:, None] * grid.ny + iy[None, :]).ravel()


def encode(f, node_idx: np.ndarray) -> np.ndarray:
    """Pointwise readout of a Field at encoder nodes."""
    return f.values[np.asarray(node_idx, dtype=int)]


def encoder_matrix(basis, node_idx: np.ndarray) -> np.ndarray:
    """Matrix M with encode(sample_field(basis, z)) = z @ M, shape (n_modes, n_enc)."""
    return basis.weighted_modes[:, np.asarray(node_idx, dtype=int)]


# ---------------------------------------------------------------------------
# training set


@dataclass
class TrainingSet:
    """Aligned arrays of branch inputs and full-order targets at shared queries."""

    inputs: np.ndarray   # (N, n_in)
    targets: np.ndarray  # (N, Q)
    queries: np.ndarray  # (Q, q_dim)
    tags: list = field(default_factory=list)
    zetas: np.ndarray | None = None  # provenance: raw parameter vectors

    def __post_init__(self):
        self.inputs = np.atleast_2d(np.asarray(self.inputs, dtype=float))
        self.targets = np.atleast_2d(np.asarray(self.targets, dtype=float))
        self.queries = np.atleast_2d(np.asarray(self.queries, dtype=float))
        if self.targets.shape != (self.inputs.shape[0], self.queries.shape[0]):
            raise ValueError("targets must be (n_entries, n_queries)")
        if not self.tags:
            self.tags = ["prior"] * self.inputs.shape[0]
        if len(self.tags) != self.inputs.shape[0]:
            raise ValueError("one tag per entry required")
        if self.zetas is not None:
            self.zetas = np.atleast_2d(np.asarray(self.zetas, dtype=float))
            if self.zetas.shape[0] != self.inputs.shape[0]:
                raise ValueError("one zeta row per entry required")

    @property
    def n_entries(self) -> int:
        return self.inputs.shape[0]

    def extend(self, other: "TrainingSet") -> "TrainingSet":
        """Union of two sets sharing the same query points."""
        if not np.array_equal(self.queries, other.queries):
            raise ValueError("query points differ")
        zetas = None
        if self.zetas is not None and other.zetas is not None:
            zetas = np.vstack([self.zetas, other.zetas])
        return TrainingSet(
            np.vstack([self.inputs, other.inputs]),
            np.vstack([self.targets, other.targets]),
            self.queries,
            self.tags + other.tags,
            zetas,
        )


# ---------------------------------------------------------------------------
# loss, gradient, optimizer


def empirical_loss(s: Surrogate, ts: TrainingSet) -> float:
    """Mean squared output error over all (entry, query) pairs."""
    r = s.eval(ts.inputs, ts.queries) - ts.targets
    return float(np.mean(r * r))


def loss_and_grad(s: Surrogate, inputs, targets, queries):
    """Loss and its gradient w.r.t. the flat weight vector."""
    b_acts = _mlp_forward(s.branch_params, inputs)
    t_acts = _mlp_forward(s.trunk_params, queries)
    beta, tval = b_acts[-1], t_acts[-1]
    # out_shift + out_scale * (beta tval^T + bias0) - targets, in place
    resid = beta @ tval.T
    resid += s.bias0
    resid *= s.out_scale
    resid += s.out_shift
    resid -= targets
    loss = float(np.mean(resid * resid))

    d_raw = np.multiply(resid, 2.0 * s.out_scale / resid.size, out=resid)
    d_beta = d_raw @ tval
    d_tval = d_raw.T @ beta
    d_bias0 = float(d_raw.sum())
    b_grads = _mlp_backward(s.branch_params, b_acts, d_beta)
    t_grads = _mlp_backward(s.trunk_params, t_acts, d_tval)
    return loss, _pack(b_grads, t_grads, d_bias0)


class Adam:
    """Adaptive-moment gradient descent on a flat weight vector."""

    def __init__(self, n: int, lr: float, beta1: float = 0.9, beta2: float = 0.999,
                 eps: float = 1e-8):
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.m = np.zeros(n)
        self.v = np.zeros(n)
        self.t = 0

    def step(self, w: np.ndarray, g: np.ndarray) -> np.ndarray:
        self.t += 1
        self.m = self.beta1 * self.m + (1 - self.beta1) * g
        self.v = self.beta2 * self.v + (1 - self.beta2) * g * g
        mh = self.m / (1 - self.beta1**self.t)
        vh = self.v / (1 - self.beta2**self.t)
        return w - self.lr * mh / (np.sqrt(vh) + self.eps)


def train(s: Surrogate, ts: TrainingSet, n_iters: int, lr: float = 1e-3,
          batch_size: int | None = None, rng=None, record_every: int = 100) -> Surrogate:
    """Adam descent on the empirical loss; mutates and returns the surrogate.

    Full-batch by default; with batch_size set, entries are shuffled with rng
    each pass.  The returned weights are checked to not lose ground: final
    full-set loss must not exceed the starting full-set loss.
    """
    if n_iters < 0:
        raise ValueError("n_iters must be >= 0")
    if n_iters == 0:
        return s
    rng = np.random.default_rng(rng)
    initial = empirical_loss(s, ts)
    opt = Adam(s.n_weights, lr)
    w = s.get_weights()
    # row-major like the residual: batched sensor readings come column-major
    targets = np.ascontiguousarray(ts.targets)
    order = np.arange(ts.n_entries)
    cursor = 0
    for it in range(1, n_iters + 1):
        if batch_size is None or batch_size >= ts.n_entries:
            idx = slice(None)
        else:
            if cursor + batch_size > ts.n_entries:
                order = rng.permutation(ts.n_entries)
                cursor = 0
            idx = order[cursor:cursor + batch_size]
            cursor += batch_size
        loss, g = loss_and_grad(s, ts.inputs[idx], targets[idx], ts.queries)
        if not np.isfinite(loss):
            raise TrainingError(f"non-finite loss at iteration {it}")
        w = opt.step(w, g)
        s.set_weights(w)
        s.iters_done += 1
        if it % record_every == 0 or it == n_iters:
            s.train_log.append((s.iters_done, loss))
    final = empirical_loss(s, ts)
    if not np.isfinite(final) or final > initial:
        raise TrainingError(
            f"training did not descend: initial {initial:.6e}, final {final:.6e}"
        )
    return s


def fine_tune(s: Surrogate, ts: TrainingSet, n_iters: int, lr: float = 5e-4,
              **kwargs) -> Surrogate:
    """Warm-start continuation of training on an (extended) set."""
    return train(s, ts, n_iters, lr=lr, **kwargs)


def write_loss_history(path, s: Surrogate) -> None:
    with open(path, "w") as fh:
        fh.write("iteration,loss\n")
        for it, loss in s.train_log:
            fh.write(f"{it},{loss!r}\n")
