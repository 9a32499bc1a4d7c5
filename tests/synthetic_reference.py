"""The synthetic generator as it was before its loops ran on Python floats.

``synthetic_series`` indexes numpy scalars in its latent recursion and
``gen_synthetic`` formats each value with ``repr(float(v))``. Kept
verbatim as the oracle that ``stlstm.data.synthetic_series`` and
``stlstm.data.gen_synthetic`` must match: the same latent and value
bits and byte-identical files, or the same error class and message.
The one later edit is the library's: ``gen_synthetic`` checks
``test_days`` and the last date before it draws the series.
"""

import datetime as dt
import math
from pathlib import Path

import numpy as np

from stlstm.errors import DataError


def synthetic_series(locations: int, vars_per_location: int, days: int,
                     coupling: float, seed: int, ar_coef: float = 0.7,
                     noise_std: float = 0.3
                     ) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """Latent AR system with lagged cross-location coupling, plus readouts.

    Each location k carries a latent s_k following

        s_k(t+1) = ar_coef * ((1 - kappa) * s_k(t)
                   + kappa * mean_{j != k} s_j(t - delta_jk)) + eps

    with eps ~ N(0, noise_std) and per-pair lags delta_jk in {1, 2}
    fixed by the seed. The convex mix keeps the system stationary for
    every coupling in [0, 1] and reduces to an uncoupled AR(1) at
    kappa = 0. Observed variables are fixed linear readouts of the
    local latent plus a shared seasonal term sin(2*pi*t/365) and
    observation noise; variable 1 of every location is 'temperature',
    scaled to look like degrees Celsius.

    Returns (latents (days, c), values (days, c, m), variable names).
    """
    if locations < 1 or vars_per_location < 1:
        raise DataError("need at least one location and one variable")
    if not 0.0 <= coupling <= 1.0:
        raise DataError(f"coupling must be in [0, 1], got {coupling}")
    if not (math.isfinite(noise_std) and noise_std >= 0.0):
        raise DataError(f"noise_std must be finite and >= 0, got {noise_std}")
    if not math.isfinite(ar_coef):
        raise DataError(f"ar_coef must be finite, got {ar_coef}")
    if seed < 0:  # numpy's generators take no negative seed
        raise DataError(f"seed must be >= 0, got {seed}")
    c, m = locations, vars_per_location
    rng = np.random.default_rng(seed)

    lags = rng.integers(1, 3, size=(c, c))  # delta_jk in {1, 2}
    temp_gain = 3.0
    temp_season = 8.0
    temp_offset = 10.0
    gains = rng.uniform(-2.0, 2.0, size=(c, m))
    seasonals = rng.uniform(-2.0, 2.0, size=(c, m))
    offsets = rng.uniform(-1.0, 1.0, size=(c, m))
    gains[:, 0] = temp_gain
    seasonals[:, 0] = temp_season
    offsets[:, 0] = temp_offset

    eps = rng.normal(0.0, noise_std, size=(days, c))
    obs_noise = rng.normal(0.0, noise_std, size=(days, c, m))

    latents = np.zeros((days, c))
    latents[0] = eps[0]
    # an overflow needs no numpy warning, as a non-finite series is refused below
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(days - 1):
            for k in range(c):
                if c > 1 and coupling > 0.0:
                    cross = 0.0
                    for j in range(c):
                        if j == k:
                            continue
                        tj = t - int(lags[j, k])
                        cross += latents[tj, j] if tj >= 0 else 0.0
                    cross /= c - 1
                else:
                    cross = 0.0
                latents[t + 1, k] = (ar_coef * ((1.0 - coupling) * latents[t, k]
                                                + coupling * cross) + eps[t + 1, k])

        season = np.sin(2.0 * np.pi * np.arange(days) / 365.0)
        values = (offsets[None, :, :]
                  + gains[None, :, :] * latents[:, :, None]
                  + seasonals[None, :, :] * season[:, None, None]
                  + obs_noise)
    if not np.isfinite(values).all():
        raise DataError(f"synthetic series overflows float64 (ar_coef={ar_coef}, "
                        f"noise_std={noise_std})")
    variables = ["temperature"] + [f"var{v}" for v in range(2, m + 1)]
    return latents, values, variables


def gen_synthetic(out_dir, locations: int, vars_per_location: int, days: int,
                  coupling: float, seed: int, ar_coef: float = 0.7,
                  noise_std: float = 0.3, test_days: int | None = None,
                  start_date: dt.date = dt.date(2007, 1, 1)) -> Path:
    """Write per-location CSVs plus a manifest; byte-identical per seed.

    The last ``test_days`` days (default days // 10) become the declared
    test range. Every argument is checked before anything is drawn or
    written. Returns the manifest path.
    """
    if days < 50:
        raise DataError(f"synthetic generator needs days >= 50, got {days}")
    if test_days is None:
        test_days = days // 10
    if not 0 < test_days < days:
        raise DataError(f"test_days must be in (0, days), got {test_days}")
    if days - 1 > (dt.date.max - start_date).days:
        raise DataError(f"{days} days from {start_date} run past {dt.date.max}")
    _, values, variables = synthetic_series(locations, vars_per_location, days,
                                            coupling, seed, ar_coef, noise_std)

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    dates = [start_date + dt.timedelta(days=t) for t in range(days)]
    loc_names = [f"loc{k}" for k in range(1, locations + 1)]
    for k, name in enumerate(loc_names):
        lines = ["date," + ",".join(variables)]
        for t, date in enumerate(dates):
            lines.append(date.isoformat() + ","
                         + ",".join(repr(float(v)) for v in values[t, k]))
        (out_dir / f"{name}.csv").write_text("\n".join(lines) + "\n")

    manifest_lines = [f"{name},{name}.csv" for name in loc_names]
    manifest_lines.append(f"target={loc_names[0]}:temperature")
    manifest_lines.append(
        f"test_start={dates[days - test_days].isoformat()},"
        f"test_end={dates[-1].isoformat()}"
    )
    manifest_path = out_dir / "manifest.txt"
    manifest_path.write_text("\n".join(manifest_lines) + "\n")
    return manifest_path
