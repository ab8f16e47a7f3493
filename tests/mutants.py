"""Named mutants of ``src/isicap`` that the test suite must kill.

Each row is one mutant: its name, its module (a file of ``src/isicap``), a
snippet of that module's source, which must occur exactly once, the text
that replaces it, and the ids of the tests that must catch it.
``scripts/mutate.py`` applies one mutant at a time to a copy of the package
and runs only its tests, with ``-x``: the mutant is killed when one of them
fails.  The runner also fails when a snippet no longer occurs exactly once
or a test id no longer exists, so a refactor that moves the code or renames
the test has to carry its rows along.
"""

from typing import NamedTuple


class Mutant(NamedTuple):
    name: str
    module: str
    snippet: str
    replacement: str
    tests: tuple


_PRODUCTS = "tests/test_spectrum.py::test_band_products_match_dense_oracle"
_DENSE_CHECKS = "tests/test_verify.py::test_channel_checks_match_dense_oracle"
_WHITEN = "tests/test_verify.py::test_whiten_matches_the_dense_product"
_PENCIL = "tests/test_verify.py::test_pencil_matches_numpy_oracle"
_BAND_PENCIL = "tests/test_verify.py::test_band_builders_match_dense_products"
_WEYL = "tests/test_verify.py::test_weyl_norm_matches_numpy_on_band_and_dense"
_ADAPTERS = "tests/test_waterfill.py::test_adapters_refuse_a_record_of_another_grid_or_channel"
_SHARED = "tests/test_channel_sim.py::test_shared_prefixes_draw_the_same_bits"
_ROOTS = "tests/test_spectrum.py::test_root_basis_matches_band_oracle"
_NEGLIGIBLE = "tests/test_spectrum.py::test_root_basis_gate_holds_with_negligible_taps"

MUTANTS = (
    # The band products of BandedChannelMatrix, against the entrywise dense oracle.
    Mutant(
        "apply reads each tap row unshifted, taps[d, :n]",
        "spectrum.py",
        "out[..., d:d + self.n] += row[d:d + self.n] * X",
        "out[..., d:d + self.n] += row[:self.n] * X",
        (f"{_PRODUCTS}[1]", f"{_PRODUCTS}[4]"),
    ),
    Mutant(
        "adjoint reads each tap row unshifted, taps[d, :n]",
        "spectrum.py",
        "out += t[d, d:d + n] * Y[..., d:d + n]",
        "out += t[d, :n] * Y[..., d:d + n]",
        (f"{_PRODUCTS}[1]", f"{_PRODUCTS}[4]"),
    ),
    Mutant(
        "gram leaves out its last term",
        "spectrum.py",
        "for e in range(k - d + 1):",
        "for e in range(k - d):",
        (f"{_PRODUCTS}[0]", f"{_PRODUCTS}[3]"),
    ),
    Mutant(
        "output_cov without the identity",
        "spectrum.py",
        "        band[0] = 1.0\n",
        "",
        (f"{_PRODUCTS}[0]", f"{_PRODUCTS}[2]"),
    ),
    Mutant(
        "scaled by w**2",
        "spectrum.py",
        "t[d:d + n] * w,",
        "t[d:d + n] * w**2,",
        (f"{_PRODUCTS}[0]", f"{_PRODUCTS}[2]"),
    ),
    # Checks recorded when the code they guard was written.
    Mutant(
        "guard band without the floor term",
        "decoder.py",
        "    err += 2.0 * (ctx.floor_norm * b * (1.0 + (n + 2) * eps) + ctx.word_err * y)\n",
        "",
        (
            "tests/test_decoder.py::test_floor_band_pair_follows_direct_form",
            "tests/test_decoder.py::test_near_threshold_pair_follows_direct_form",
            "tests/test_decoder.py::test_decode_matches_exact_rational_oracle[-10.0]",
        ),
    ),
    Mutant(
        "FOLD_ULPS 2 -> 1",
        "spectrum.py",
        "FOLD_ULPS = 2.0",
        "FOLD_ULPS = 1.0",
        (
            "tests/test_spectrum.py::test_fold_rounding_within_fold_ulps[2]",
            "tests/test_spectrum.py::test_fold_rounding_within_fold_ulps[3]",
            "tests/test_spectrum.py::test_fold_rounding_within_fold_ulps[64]",
        ),
    ),
    Mutant(
        "cell index in Philox counter word 0",
        "channel_sim.py",
        "self._counter[1] = i",
        "self._counter[0] = i",
        (
            "tests/test_channel_sim.py::test_rng_stream_is_the_documented_cell[0]",
            "tests/test_channel_sim.py::test_trial_blocks_match_one_cell_path",
        ),
    ),
    Mutant(
        "whiten without * sqrt_d",
        "verify.py",
        "return _Dense(H.apply(self.Q.T).T * self.sqrt_d)",
        "return _Dense(H.apply(self.Q.T).T)",
        (f"{_DENSE_CHECKS}[0-24]", f"{_DENSE_CHECKS}[1-24]"),
    ),
    Mutant(
        "whiten applies the band to the rows of Q, not Q'",
        "verify.py",
        "H.apply(self.Q.T)",
        "H.apply(self.Q)",
        (f"{_WHITEN}[1]", f"{_DENSE_CHECKS}[0-24]"),
    ),
    Mutant(
        "dense pencil with Omega_c and Omega_h swapped",
        "verify.py",
        '_lapack("dpotrf", omega_c, lower=1, overwrite_a=1)\n'
        '        return _pencil_of(*_tridiagonal(_lapack("dsygst", omega_h,',
        '_lapack("dpotrf", omega_h, lower=1, overwrite_a=1)\n'
        '        return _pencil_of(*_tridiagonal(_lapack("dsygst", omega_c,',
        (f"{_PENCIL}[2]", f"{_PENCIL}[258]"),
    ),
    # The pencil's four numbers read off its tridiagonal form, and the Weyl norm.
    Mutant(
        "sum lam^2 without the off-diagonal 2",
        "verify.py",
        "d @ d + 2.0 * (e @ e)",
        "d @ d + (e @ e)",
        (f"{_PENCIL}[5]", f"{_BAND_PENCIL}[1]"),
    ),
    Mutant(
        "LDL' pivot recurrence with e in place of e^2",
        "verify.py",
        "di - ei * ei / pivots[-1]",
        "di - ei / pivots[-1]",
        (f"{_PENCIL}[5]", f"{_BAND_PENCIL}[1]"),
    ),
    Mutant(
        "max lam by bisection at il = 1",
        "verify.py",
        "_bisect(d, e, m)",
        "_bisect(d, e, 1)",
        (f"{_PENCIL}[2]", f"{_BAND_PENCIL}[1]"),
    ),
    Mutant(
        "Weyl norm from the top eigenvalue of A - B alone",
        "verify.py",
        "op = max(-lo, hi)",
        "op = hi",
        (f"{_WEYL}[0]", f"{_WEYL}[2]"),
    ),
    # The band form's own arithmetic.
    Mutant(
        "band stacked trace without the off-diagonal 2",
        "verify.py",
        "2.0 * (G[1:] * G[1:]).sum()",
        "(G[1:] * G[1:]).sum()",
        (f"{_DENSE_CHECKS}[0-24]", "tests/test_verify.py::test_band_route_matches_dense_route[0]"),
    ),
    Mutant(
        "band operator norm at index 1, not n",
        "verify.py",
        "self.eigvals(self.gram(), self.n)",
        "self.eigvals(self.gram(), 1)",
        ("tests/test_verify.py::test_band_op_norm_matches_dense[1]", f"{_DENSE_CHECKS}[0-24]"),
    ),
    # The one source of alpha and beta: its stated bound and its omega = 0 candidate.
    Mutant(
        "extrema without the rounding bound delta",
        "spectrum.py",
        "return Extrema(math.sqrt(float(at.min())) - delta, math.sqrt(float(at.max())) + delta)",
        "return Extrema(math.sqrt(float(at.min())), math.sqrt(float(at.max())))",
        (
            "tests/test_spectrum.py::test_example_profile_constants",
            "tests/test_acceptance.py::test_spectrum_extrema",
        ),
    ),
    Mutant(
        "omega = 0 dropped from the candidate angles",
        "spectrum.py",
        "np.append(_critical_angles(c), 0.0)",
        "_critical_angles(c)",
        (
            "tests/test_spectrum.py::test_flat_channel_profile",
            "tests/test_spectrum.py::test_extrema_contain_the_closed_forms[c=-2.5]",
        ),
    ),
    # The quadrature grid's one owner: Simpson's weights, the sorted water
    # table and the saturation power read off its J.
    Mutant(
        "Simpson's end weights 2, not 1",
        "spectrum.py",
        "        w[0] = w[-1] = 1.0\n",
        "        w[0] = w[-1] = 2.0\n",
        (
            "tests/test_spectrum.py::test_simpson_mean_constant",
            "tests/test_spectrum.py::test_flat_channel_profile",
        ),
    ),
    Mutant(
        "water table with the weights in node order, not sorted with v",
        "spectrum.py",
        "water_table(v[order], w[order] / (2.0 * np.pi))",
        "water_table(v[order], w / (2.0 * np.pi))",
        (
            "tests/test_waterfill.py::test_cap_integral_matches_grid_oracle",
            "tests/test_waterfill.py::test_theta1_residual_below_closed_form[c0]",
        ),
    ),
    Mutant(
        "P_sat = b - J",
        "waterfill.py",
        "return b - 2.0 * grid.J, I2, C_LB2, delta2, gap_cor2",
        "return b - grid.J, I2, C_LB2, delta2, gap_cor2",
        (
            "tests/test_waterfill.py::test_saturation_power_reference",
            "tests/test_waterfill.py::test_theta2_flat_closed_form",
        ),
    ),
    # One record per (centre taps, grid): checked, and refused by the adapters
    # when it is another's.
    Mutant(
        "record built from the unchecked centre_extrema",
        "spectrum.py",
        "    ext = checked_extrema(c, J)\n",
        "    ext = centre_extrema(c)\n",
        (
            "tests/test_spectrum.py::test_singular_spectrum_raises",
            "tests/test_spectrum.py::test_spectrum_out_of_float_range_is_refused[c0-1/alpha^2]",
        ),
    ),
    Mutant(
        "adapters check the grid size only",
        "waterfill.py",
        "if (profile.c, profile.grid_size) != key:",
        "if profile.grid_size != key[1]:",
        (
            f"{_ADAPTERS}[solve_theta2]",
            f"{_ADAPTERS}[capacity_C0]",
            f"{_ADAPTERS}[pillow_terms]",
        ),
    ),
    Mutant(
        "saturation margin absolute, max(1, |I2|)",
        "waterfill.py",
        "sat = ~(P < I2 - 1e-12 * abs(I2))",
        "sat = ~(P < I2 - 1e-12 * max(1.0, abs(I2)))",
        ("tests/test_cli.py::test_route2_empty_below_psat_at_large_tap_scale",),
    ),
    Mutant(
        "the Psat_W mask dropped",
        "cli.py",
        '"Psat_W": (psat_w, ok),',
        '"Psat_W": (g.P_sat, ok),',
        ("tests/test_cli.py::test_psat_w_is_empty_where_p_sat_is_not_positive[-0.99999-]",
         "tests/test_cli.py::test_bounds_rows_keep_the_p_sat_invariants"),
    ),
    # _setup's cache keeps only the set-ups whose full-width bound fits a third of its bytes.
    Mutant(
        "the keep gate dropped (every set-up kept)",
        "decoder.py",
        "(_setup if held <= _SETUP_BYTES / 3 else _setup.__wrapped__)(spec, n, P)",
        "_setup(spec, n, P)",
        ("tests/test_decoder.py::test_kept_setups_are_the_last_three_that_fit",),
    ),
    Mutant(
        "HalfBasis.apply with its skew half transposed",
        "spectrum.py",
        "B = S[:, ss:] @ self.skew.T",
        "B = S[:, ss:] @ self.skew",
        ("tests/test_spectrum.py::test_half_basis_apply_and_adjoint_match_assembled[4]",),
    ),
    Mutant(
        "tap kernel as (c - r) + 2ru",
        "channel_sim.py",
        "    np.multiply(v, r, out=out, dtype=float)\n    out += c\n",
        "    np.multiply(v + 1.0, r, out=out, dtype=float)\n    out += c - r\n",
        (
            "tests/test_channel_sim.py::test_iid_taps_stay_in_intervals",
            "tests/test_verify.py::test_sample_banded_is_the_uniform_interval_law",
        ),
    ),
    Mutant(
        "_Cells.at without its state reset",
        "channel_sim.py",
        "        self.bits.state = self._state\n",
        "",
        (
            "tests/test_channel_sim.py::test_one_reader_moved_in_any_order_draws_fresh_cells",
            "tests/test_channel_sim.py::test_rng_stream_is_the_documented_cell[0]",
        ),
    ),
    # Trials settled by the input test before their channel.
    Mutant(
        "settled trials not added to type1",
        "decoder.py",
        "settled = len(live) - len(sent)",
        "settled = 0",
        (
            "tests/test_decoder.py::test_settled_trials_skip_the_decoder[4-0.15]",
            "tests/test_decoder.py::test_experiment_counts_match_one_cell_loop[iid]",
        ),
    ),
    Mutant(
        "live mask indexed by block position, not by sent row",
        "decoder.py",
        "live = x_ok[sent]",
        "live = x_ok[cols[:len(sent)] % book.size]",
        (
            "tests/test_decoder.py::test_settled_trials_skip_the_decoder[4-0.15]",
            "tests/test_decoder.py::test_experiment_counts_match_one_cell_loop[iid]",
        ),
    ),
    # Decoding only what can pass.
    Mutant(
        "Philox key bump skipped in message_picks",
        "channel_sim.py",
        "        key = key + _PHILOX_BUMP\n",
        "",
        ("tests/test_channel_sim.py::test_message_picks_are_integers_of_their_cells",),
    ),
    Mutant(
        "live mask ignored in TrialBlocks.draw's tap terms",
        "channel_sim.py",
        "u if every else u[live]",
        "u[:len(X)]",
        (
            "tests/test_channel_sim.py::test_trial_blocks_match_one_cell_path[iid]",
            "tests/test_decoder.py::test_settled_trials_skip_the_decoder[4-0.15]",
        ),
    ),
    Mutant(
        "TrialBlocks.draw keeps the first rows of the noise, not the live ones",
        "channel_sim.py",
        "            Y = Y[live]\n",
        "            Y = Y[:len(X)]\n",
        (
            "tests/test_channel_sim.py::test_trial_blocks_match_one_cell_path[constant]",
            "tests/test_decoder.py::test_settled_trials_skip_the_decoder[4-0.15]",
        ),
    ),
    Mutant(
        "input test dropped from the pairs recomputed in the guard band",
        "decoder.py",
        "held = ~(part[c, r] > band[c]) & x_ok[r + lo]",
        "held = ~(part[c, r] > band[c])",
        ("tests/test_decoder.py::test_all_in_band_blocks_build_each_word_once[16--10.0]",),
    ),
    Mutant(
        "each message-pick pass restarts at the first trial",
        "channel_sim.py",
        "np.arange(lo, min(lo + _PICK_CHUNK, trials), dtype=np.uint64)",
        "np.arange(0, min(lo + _PICK_CHUNK, trials) - lo, dtype=np.uint64)",
        ("tests/test_channel_sim.py::test_message_picks_hold_four_bytes_a_trial",),
    ),
    # The cell reader: a cell's first trial restarts the cell.
    Mutant(
        "a cell's first trial continues the last run instead of calling at",
        "channel_sim.py",
        "            if not i:\n",
        "            if not t:\n",
        (
            "tests/test_channel_sim.py::test_one_reader_moved_in_any_order_draws_fresh_cells",
            "tests/test_channel_sim.py::test_trial_blocks_match_one_cell_path[iid]",
        ),
    ),
    # One draw per cell per command: the widest length writes each kept
    # cell, and the narrower ones copy their runs out of it.
    Mutant(
        "a reader's run starts one trial late in the kept cell",
        "channel_sim.py",
        "flat[:] = kept[i * w:i * w + len(flat)]",
        "flat[:] = kept[(i + 1) * w:(i + 1) * w + len(flat)]",
        (
            f"{_SHARED}[iid-32-kept]",
            "tests/test_cli.py::test_simulate_rows_equal_each_block_length_alone[iid-1]",
        ),
    ),
    Mutant(
        "the writer keeps one trial less of a cell than the widest reader reads",
        "channel_sim.py",
        "np.empty(_TRIAL_CELL * self._keep, dtype=buf.dtype)",
        "np.empty((_TRIAL_CELL - 1) * self._keep, dtype=buf.dtype)",
        (
            f"{_SHARED}[iid-512-kept]",
            "tests/test_cli.py::test_simulate_rows_equal_each_block_length_alone[desc-1]",
        ),
    ),
    Mutant(
        "the last reader drops a kept cell before it has read the cell to its end",
        "channel_sim.py",
        "if self._last and i + len(run) == _TRIAL_CELL:",
        "if self._last:",
        (
            f"{_SHARED}[iid-32-kept]",
            "tests/test_cli.py::test_simulate_rows_equal_each_block_length_alone[words15-narrower-1]",
        ),
    ),
    Mutant(
        "kept pick words keyed without the trial count",
        "channel_sim.py",
        "key = (master_seed, trials)",
        "key = master_seed",
        ("tests/test_channel_sim.py::test_shared_pick_words_are_kept_per_seed_and_trials",),
    ),
    # The root route's checks recorded when it was written.
    Mutant(
        "ghost rows without their reflected term",
        "spectrum.py",
        "    return (np.exp(-zeta[:, :, None] * (kp - j)) + far).transpose(0, 2, 1)",
        "    return np.exp(-zeta[:, :, None] * (kp - j)).transpose(0, 2, 1)",
        (f"{_ROOTS}[c=0.41,-0.36,-0.10-3]", f"{_ROOTS}[c=0.41,-0.36,-0.10-255]"),
    ),
    Mutant(
        "middle column of the symmetric half band without its sqrt(2)",
        "spectrum.py",
        "sym[:-1, h] *= math.sqrt(2.0)",
        "sym[:-1, h] *= 1.0",
        ("tests/test_spectrum.py::test_gram_eigh_matches_dense_gram[3-1]",
         "tests/test_spectrum.py::test_gram_eigenvalues_match_dense"),
    ),
    Mutant(
        "root columns without the sqrt(2) on their top n // 2 entries",
        "spectrum.py",
        "out[:, :h] *= math.sqrt(2.0)",
        "out[:, :h] *= 1.0",
        (f"{_ROOTS}[c=0.32,-0.86-3]", f"{_ROOTS}[c=0.70,0.40,-0.51,-0.74,0.42-3]"),
    ),
    Mutant(
        "half bands read the corner lag one short, t[n - 2 - i - j]",
        "spectrum.py",
        "band[u - (j - i), j] += sign * t[n - 1 - i - j]",
        "band[u - (j - i), j] += sign * t[n - 2 - i - j]",
        (f"{_ROOTS}[c=0.32,-0.86-2]", f"{_ROOTS}[c=0.41,-0.36,-0.10-256]",
         "tests/test_spectrum.py::test_gram_eigenvalues_match_dense"),
    ),
    Mutant(
        "half bands' corner range starts one column late, at h - k + 1",
        "spectrum.py",
        "for j in range(max(h - k, 0), h):",
        "for j in range(max(h - k + 1, 0), h):",
        (f"{_ROOTS}[c=0.32,-0.86-256]", "tests/test_spectrum.py::test_gram_eigenvalues_match_dense"),
    ),
    # The measured switch from the root columns to LAPACK's eigenbasis of a half band.
    Mutant(
        "the overlap test always passes (the root columns are always kept)",
        "spectrum.py",
        "    if not np.abs(D).max(initial=0.0) <= 1e-7:\n        return None\n",
        "",
        ("tests/test_spectrum.py::test_eigencolumns_refuse_overlap_the_eigenvalue_cannot_see",),
    ),
    Mutant(
        "the residual entries are not measured (only the eigenvalue match decides)",
        "spectrum.py",
        "np.abs(R).max(initial=0.0) <= tol and ",
        "",
        (_NEGLIGIBLE,),
    ),
    Mutant(
        "the eigenvalue match is not measured (a column of another eigenvalue is kept)",
        "spectrum.py",
        " and np.abs(g - lam).max(initial=0.0) <= tol",
        "",
        (_NEGLIGIBLE,),
    ),
    Mutant(
        "the residual's top rows counted unfolded, without 1/sqrt(2)",
        "spectrum.py",
        "    R[:h] *= _R2\n",
        "",
        ("tests/test_spectrum.py::test_root_basis_counts_top_rows_as_they_fold[k3]",
         "tests/test_spectrum.py::test_root_basis_counts_top_rows_as_they_fold[k4]"),
    ),
    Mutant(
        "the residual tolerance from t_0 + 2 sum |t_d|, above ||G||_1 at n <= 2k'",
        "spectrum.py",
        "float(np.convolve(np.ones(n), kernel)[len(t) - 1:][:n].max())",
        "float(kernel.sum())",
        (_NEGLIGIBLE,),
    ),
    Mutant(
        "the overlap threshold is -1 (every half goes to LAPACK)",
        "spectrum.py",
        "<= 1e-7:",
        "<= -1.0:",
        (f"{_ROOTS}[c=0.41,-0.36,-0.10-255]", f"{_ROOTS}[c=0.70,0.40,-0.51,-0.74,0.42-1024]"),
    ),
    Mutant(
        "gram_fit's bound without its rounding allowance",
        "spectrum.py",
        "        return gain, math.sqrt(sq) + rounding",
        "        return gain, math.sqrt(sq)",
        ("tests/test_spectrum.py::test_gram_fit_bounds_the_exact_residual[1]",
         "tests/test_spectrum.py::test_gram_fit_bounds_the_exact_residual[2]"),
    ),
    Mutant(
        "energy_err without the floor energy",
        "decoder.py",
        "(omega + (n + 1) * eps) * lam_max) + floor_energy",
        "(omega + (n + 1) * eps) * lam_max)",
        ("tests/test_decoder.py::test_support_energy_within_energy_err",
         "tests/test_decoder.py::test_guard_band_constants_count_the_half_bases"),
    ),
    # The flat passes around the decoder's two GEMMs, each the same bits as the strided form.
    Mutant(
        "the flat band adjoint reads tap d one entry late (for d < k)",
        "spectrum.py",
        "flat[:L] += np.multiply(y[d:d + L], t[d, 0], out=tmp)",
        "flat[:L] += np.multiply(y[min(d + 1, self.k):min(d + 1, self.k) + L], t[d, 0], out=tmp)",
        ("tests/test_spectrum.py::test_centre_adjoint_equals_the_band_adjoint_bit_for_bit[2]",),
    ),
    Mutant(
        "the scan's early exit skips a group holding an in-band pair (max for min)",
        "decoder.py",
        "if part.min(initial=np.inf) > widest:",
        "if part.max(initial=-np.inf) > widest:",
        ("tests/test_decoder.py::test_pairs_forced_into_the_guard_band_follow_the_dense_rule[0.01]",),
    ),
    Mutant(
        "a tap term lands one output late",
        "channel_sim.py",
        "            y += flat\n",
        "            y[1:] += flat[:-1]\n",
        ("tests/test_channel_sim.py::test_trial_blocks_match_one_cell_path[iid]",),
    ),
)
