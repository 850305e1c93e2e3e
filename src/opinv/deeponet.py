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
from dataclasses import dataclass

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


def _layer_views(arch: NetArch, flat: np.ndarray) -> tuple:
    """(branch, trunk) lists of (W, b) views into a flat weight vector.

    The order is branch W0, b0, W1, b1, ..., then the trunk layers, then
    bias0 as the last entry: the order of the checkpoint file.
    """
    k, nets = 0, []
    for widths in (arch.branch, arch.trunk):
        layers = []
        for n_in, n_out in zip(widths[:-1], widths[1:]):
            W = flat[k:k + n_in * n_out].reshape(n_in, n_out)
            k += n_in * n_out
            layers.append((W, flat[k:k + n_out]))
            k += n_out
        nets.append(layers)
    if flat.shape != (k + 1,):
        raise ValueError(f"expected {k + 1} weights, got {flat.size}")
    return tuple(nets)


def _mlp_forward(params, x):
    """Returns the list of layer activations, acts[0] = x, acts[-1] = output."""
    acts = [x]
    last = len(params) - 1
    for k, (W, b) in enumerate(params):
        z = acts[-1] @ W + b
        acts.append(z if k == last else np.tanh(z))
    return acts


def _mlp_output(params, x):
    """``_mlp_forward(params, x)[-1]``, bit for bit, with one activation
    alive at a time: each layer's bias and tanh are applied in place."""
    last = len(params) - 1
    for k, (W, b) in enumerate(params):
        x = x @ W
        x += b
        if k != last:
            np.tanh(x, out=x)
    return x


def _mlp_backward(params, grads, acts, d):
    """Writes the gradients of all (W, b) into the views ``grads``, given
    d = d loss / d output."""
    last = len(params) - 1
    for k in range(last, -1, -1):
        if k != last:  # tanh' = 1 - a^2, formed in one buffer
            dtanh = np.square(acts[k + 1])
            np.subtract(1.0, dtanh, out=dtanh)
            d = np.multiply(d, dtanh, out=dtanh)
        gW, gb = grads[k]
        np.matmul(acts[k].T, d, out=gW)
        np.sum(d, axis=0, out=gb)
        if k:  # nothing reads the gradient w.r.t. the network input
            d = d @ params[k][0].T


class Surrogate:
    """Trained operator network plus its calibration and training history.

    All parameters live in the flat vector ``w`` (see ``_layer_views`` for
    the order, bias0 is ``w[-1]``); ``branch_params`` and ``trunk_params``
    are views into it, so ``w`` is only ever updated in place.
    """

    def __init__(self, arch: NetArch, w, out_shift: float = 0.0, out_scale: float = 1.0):
        self.arch = arch
        self.w = np.asarray(w, dtype=float)
        self.branch_params, self.trunk_params = _layer_views(arch, self.w)
        self.out_shift = float(out_shift)
        self.out_scale = float(out_scale)
        self.train_log: list = []
        self.iters_done = 0

    @classmethod
    def init(cls, arch: NetArch, rng, out_shift: float = 0.0, out_scale: float = 1.0):
        """Glorot-normal weights; zero biases and bias0."""
        rng = np.random.default_rng(rng)
        parts = []
        for widths in (arch.branch, arch.trunk):
            for n_in, n_out in zip(widths[:-1], widths[1:]):
                scale = np.sqrt(2.0 / (n_in + n_out))
                parts += [scale * rng.standard_normal(n_in * n_out), np.zeros(n_out)]
        return cls(arch, np.concatenate(parts + [np.zeros(1)]), out_shift, out_scale)

    # -- evaluation ---------------------------------------------------------

    def eval(self, inputs: np.ndarray, queries: np.ndarray) -> np.ndarray:
        """Surrogate outputs, shape (n_samples, n_queries), or (B, 1,
        n_queries) for a (B, 1, n_in) stack of inputs.  Only backprop needs
        every activation (``loss_and_grad``); here bias0, scale and shift
        are applied in place to the one output array."""
        tval = _mlp_output(self.trunk_params, np.atleast_2d(queries))
        out = _mlp_output(self.branch_params, np.atleast_2d(inputs)) @ tval.T
        out += self.w[-1]
        out *= self.out_scale
        out += self.out_shift
        return out

    # -- persistence ------------------------------------------------------------

    def save(self, stem) -> None:
        """Write <stem>.json (metadata) and <stem>.bin (weights, <f8)."""
        stem = str(stem)
        meta = {
            "arch": {"branch": list(self.arch.branch), "trunk": list(self.arch.trunk)},
            "out_shift": self.out_shift,
            "out_scale": self.out_scale,
            "iters_done": self.iters_done,
            "train_log": [[int(i), float(v)] for i, v in self.train_log],
        }
        with open(stem + ".json", "w") as fh:
            json.dump(meta, fh, indent=1, sort_keys=True)
        with open(stem + ".bin", "wb") as fh:
            fh.write(self.w.astype("<f8").tobytes())

    @classmethod
    def load(cls, stem):
        stem = str(stem)
        with open(stem + ".json") as fh:
            meta = json.load(fh)
        arch = NetArch(tuple(meta["arch"]["branch"]), tuple(meta["arch"]["trunk"]))
        s = cls(arch, np.fromfile(stem + ".bin", dtype="<f8"),
                meta["out_shift"], meta["out_scale"])
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


def encoder_matrix(basis, node_idx: np.ndarray) -> np.ndarray:
    """Matrix M with sample_field(basis, z)[node_idx] = z @ M, the
    pointwise readout of a field at the encoder nodes; shape (n_modes, n_enc)."""
    return basis.weighted_modes[:, np.asarray(node_idx, dtype=int)]


# ---------------------------------------------------------------------------
# training set


@dataclass
class TrainingSet:
    """Aligned arrays of branch inputs and full-order targets at shared queries."""

    inputs: np.ndarray   # (N, n_in)
    targets: np.ndarray  # (N, Q)
    queries: np.ndarray  # (Q, q_dim)

    def __post_init__(self):
        self.inputs = np.atleast_2d(np.asarray(self.inputs, dtype=float))
        self.targets = np.atleast_2d(np.asarray(self.targets, dtype=float))
        self.queries = np.atleast_2d(np.asarray(self.queries, dtype=float))
        if self.targets.shape != (self.inputs.shape[0], self.queries.shape[0]):
            raise ValueError("targets must be (n_entries, n_queries)")

    @property
    def n_entries(self) -> int:
        return self.inputs.shape[0]

    def extend(self, other: "TrainingSet") -> "TrainingSet":
        """Union of two sets sharing the same query points."""
        if not np.array_equal(self.queries, other.queries):
            raise ValueError("query points differ")
        return TrainingSet(np.vstack([self.inputs, other.inputs]),
                           np.vstack([self.targets, other.targets]), self.queries)


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
    resid += s.w[-1]
    resid *= s.out_scale
    resid += s.out_shift
    resid -= targets
    loss = float(np.mean(resid * resid))

    d_raw = np.multiply(resid, 2.0 * s.out_scale / resid.size, out=resid)
    g = np.empty_like(s.w)
    b_grads, t_grads = _layer_views(s.arch, g)
    _mlp_backward(s.branch_params, b_grads, b_acts, d_raw @ tval)
    _mlp_backward(s.trunk_params, t_grads, t_acts, d_raw.T @ beta)
    g[-1] = d_raw.sum()
    return loss, g


class Adam:
    """Adaptive-moment gradient descent on a flat weight vector."""

    def __init__(self, n: int, lr: float, beta1: float = 0.9, beta2: float = 0.999,
                 eps: float = 1e-8):
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.m = np.zeros(n)
        self.v = np.zeros(n)
        self.t = 0

    def step(self, w: np.ndarray, g: np.ndarray) -> None:
        """Updates w and the moments in place."""
        self.t += 1
        self.m *= self.beta1
        self.m += (1 - self.beta1) * g
        self.v *= self.beta2
        self.v += (1 - self.beta2) * g * g
        mh = self.m / (1 - self.beta1**self.t)
        vh = self.v / (1 - self.beta2**self.t)
        w -= self.lr * mh / (np.sqrt(vh) + self.eps)


def train(s: Surrogate, ts: TrainingSet, n_iters: int, lr: float = 1e-3) -> Surrogate:
    """Full-batch Adam descent on the empirical loss; mutates and returns the
    surrogate, logging the loss every 100 iterations and at the last.

    The returned weights are checked to not lose ground: final full-set loss
    must not exceed the starting full-set loss.
    """
    if n_iters < 0:
        raise ValueError("n_iters must be >= 0")
    if n_iters == 0:
        return s
    initial = empirical_loss(s, ts)
    opt = Adam(s.w.size, lr)
    # row-major like the residual: batched sensor readings come column-major
    targets = np.ascontiguousarray(ts.targets)
    for it in range(1, n_iters + 1):
        loss, g = loss_and_grad(s, ts.inputs, targets, ts.queries)
        if not np.isfinite(loss):
            raise TrainingError(f"non-finite loss at iteration {it}")
        opt.step(s.w, g)
        s.iters_done += 1
        if it % 100 == 0 or it == n_iters:
            s.train_log.append((s.iters_done, loss))
    final = empirical_loss(s, ts)
    if not np.isfinite(final) or final > initial:
        raise TrainingError(
            f"training did not descend: initial {initial:.6e}, final {final:.6e}"
        )
    return s


def fine_tune(s: Surrogate, ts: TrainingSet, n_iters: int, lr: float = 5e-4) -> Surrogate:
    """Warm-start continuation of training on an (extended) set."""
    return train(s, ts, n_iters, lr=lr)


def write_loss_history(path, s: Surrogate) -> None:
    with open(path, "w") as fh:
        fh.write("iteration,loss\n")
        for it, loss in s.train_log:
            fh.write(f"{it},{loss!r}\n")
