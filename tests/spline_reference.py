"""The sample-wise reference of the spline MER fit: a sparse design with one
row per sample, and the smoothed-pinball objective and its exact gradient
written on it. The fitter never builds either; the gradient checks and the
majorize-minimize test validate the fit against them.
"""

import numpy as np
from scipy import sparse


def sample_design(model, samples, shape: tuple[int, int]):
    """Sample-wise design, a scipy.sparse CSR matrix whose row for a sample
    at (iy, ix) is kron(By[iy], Bx[ix]): the reference that
    ``objective_and_grad`` and the tests are written on."""
    by, bx = model._grid_bases(shape)
    rows = by[samples.pixel_y][:, :, None] * bx[samples.pixel_x][:, None, :]
    return sparse.csr_matrix(rows.reshape(samples.n, -1))


def data_loss_and_grad(params: np.ndarray, design, x: np.ndarray, y: np.ndarray,
                       kappa: float) -> tuple[float, np.ndarray]:
    """Smoothed median pinball loss with its exact gradient. The
    pinball |e|/2 is replaced by e^2/(4 kappa) inside |e| <= kappa,
    keeping the loss C1."""
    nb = design.shape[1]
    b = params[:nb]
    c = params[nb:]
    pred = design @ b - x * (design @ c)
    e = y - pred
    abse = np.abs(e)
    inband = abse <= kappa
    loss = float(np.where(inband, e * e / (4.0 * kappa), 0.5 * abse - kappa / 4.0).sum())
    w = np.where(inband, e / (2.0 * kappa), 0.5 * np.sign(e))
    grad_b = -(design.T @ w)
    grad_c = design.T @ (w * x)
    return loss, np.concatenate([grad_b, grad_c])


def objective_and_grad(model, params: np.ndarray, design, x: np.ndarray, y: np.ndarray,
                       kappa: float, penalty_mat: np.ndarray) -> tuple[float, np.ndarray]:
    """Full objective (smoothed pinball plus ``model.penalty`` times the
    roughness penalty) and its exact gradient."""
    loss, grad = data_loss_and_grad(params, design, x, y, kappa)
    nb = design.shape[1]
    b = params[:nb]
    c = params[nb:]
    pb = penalty_mat @ b
    pc = penalty_mat @ c
    loss += model.penalty * float(b @ pb + c @ pc)
    grad[:nb] += 2.0 * model.penalty * pb
    grad[nb:] += 2.0 * model.penalty * pc
    return loss, grad
