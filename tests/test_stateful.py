"""State-machine fuzzing of the streaming session and of its cache banks.

Hypothesis drives random runs of good and bad input into small sessions
(context 1, 2 or 4, stride 1 or 2, fp32 or fp16) and into lone banks, and
after every step checks that a refused input left no trace. Both machines
are derandomized, so a run is the same on every machine.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize,
                                 invariant, precondition, rule)

from depthstream import tensor as T
from depthstream.cache import CacheBank
from depthstream.model import DepthModel, ModelConfig
from depthstream.verify import EQUIV_TOL

CFG = ModelConfig(height=8, width=8, patch_size=4, encoder_channels=8,
                  head_channels=8, num_motion_modules=2, context=4, seed=5)
MODEL = DepthModel(CFG)
FRAME_SHAPE = (CFG.tokens, CFG.encoder_channels)
# the stream's gate against the banded batch pass; an fp16 bank rounds
# every stored latent, so its gap is the fp16 cache's gate
BATCH_TOL = {"fp32": EQUIV_TOL, "fp16": 5e-4}
BYTES = {"fp32": 4, "fp16": 2}
SEEDS = st.integers(0, 2 ** 16)
AT = st.integers(0, CFG.tokens * CFG.encoder_channels - 1)
LATENT = (3, 2)  # the bank machine's latent shape


def features(seed):
    rgb = np.random.default_rng(seed).random((CFG.height, CFG.width, 3),
                                             dtype=np.float32)
    return MODEL.encoder.encode_frame(rgb)


class SessionMachine(RuleBasedStateMachine):
    """One session offered good and bad frames, next to a reference
    session that is offered only the frames the first one accepted."""

    @initialize(c=st.sampled_from([1, 2, 4]), m=st.sampled_from([1, 2]),
                precision=st.sampled_from(["fp32", "fp16"]))
    def start(self, c, m, precision):
        self.c, self.m, self.precision = c, m, precision
        self.session = MODEL.new_session(c, m, precision)
        self.reference = MODEL.new_session(c, m, precision)
        self.accepted, self.outputs = [], []
        self.batch_checked = 0

    def refuse(self, frame, error):
        with pytest.raises(error):
            self.session.head_forward_stream(frame)

    @rule(seed=SEEDS, count=st.integers(1, 4))
    def valid_frames(self, seed, count):
        # a few at a time, so that runs reach the banks' evictions
        for i in range(count):
            frame = features(seed + i)
            out = self.session.head_forward_stream(frame)
            np.testing.assert_array_equal(
                out, self.reference.head_forward_stream(frame))
            self.accepted.append(frame)
            self.outputs.append(out)

    @rule(seed=SEEDS, at=AT, value=st.sampled_from([np.nan, np.inf, -np.inf]))
    def non_finite_frame(self, seed, at, value):
        frame = features(seed)
        frame.reshape(-1)[at] = value
        self.refuse(frame, ValueError)

    @rule(shape=st.sampled_from([(FRAME_SHAPE[0] + 1, FRAME_SHAPE[1]),
                                 (FRAME_SHAPE[0], FRAME_SHAPE[1] - 1),
                                 (FRAME_SHAPE[0] * FRAME_SHAPE[1],),
                                 (2, *FRAME_SHAPE)]))
    def wrong_shape_frame(self, shape):
        self.refuse(np.zeros(shape, dtype=np.float32), ValueError)

    @rule()
    def huge_frame(self):
        # finite, but the input projection overflows
        self.refuse(np.full(FRAME_SHAPE, 3e38, dtype=np.float32),
                    T.NonFiniteError)

    @rule(seed=SEEDS, at=AT)
    def float64_frame_beyond_float32(self, seed, at):
        frame = features(seed).astype(np.float64)
        frame.reshape(-1)[at] = 1e39
        with np.errstate(over="ignore"):
            self.refuse(frame, ValueError)

    @rule(seed=SEEDS, module=st.integers(0, CFG.num_motion_modules - 1))
    def latent_beyond_the_bank(self, seed, module):
        # a frame whose latent at one module the bank cannot store: for
        # this step the module's layer-norm gain is scaled by 1e5 (finite
        # in float32, beyond float16) or, for an fp32 bank, by inf. At
        # module 1, bank 0 has already taken the frame.
        folded = self.session.folded[module]
        scale = 1e5 if self.precision == "fp16" else np.inf
        self.session.folded[module] = dataclasses.replace(
            folded, ln_gain=T.Tensor(folded.ln_gain.data * scale))
        try:
            self.refuse(features(seed), T.NonFiniteError)
        finally:
            self.session.folded[module] = folded

    @rule(seed=SEEDS)
    def non_finite_output(self, seed):
        # a frame that every bank has taken, whose head output is not
        # finite: for this step the readout weights are scaled by inf
        model = self.session.model
        w_out = model.w_out
        model.w_out = T.Tensor(w_out.data * np.inf)
        try:
            self.refuse(features(seed), T.NonFiniteError)
        finally:
            model.w_out = w_out

    @invariant()
    def footprint_is_the_closed_form(self):
        stored = min(len(self.accepted), self.m * self.c)
        assert self.session.memory_footprint() == (
            CFG.num_motion_modules * stored * CFG.tokens
            * CFG.head_channels * BYTES[self.precision])

    @invariant()
    def no_bank_holds_a_non_finite_value(self):
        for bank in self.session.banks:
            for latent in bank._entries:
                assert np.isfinite(latent).all()

    @invariant()
    def accepted_outputs_match_one_batch_pass(self):
        n = len(self.accepted)
        if n == self.batch_checked:
            return
        self.batch_checked = n
        batch = MODEL.head_forward_batch(np.stack(self.accepted),
                                         context=self.c).data
        # a strided window (m > 1, from frame c on) has no banded batch
        # counterpart, so only the frames before it are compared
        k = n if self.m == 1 else min(n, self.c)
        gap = np.abs(batch[:k] - np.stack(self.outputs[:k])).max()
        assert gap <= BATCH_TOL[self.precision], gap


SessionMachine.TestCase.settings = settings(
    max_examples=80, stateful_step_count=20, derandomize=True,
    database=None, deadline=None)
# both machines offer NaN, Inf and overflowing values on purpose, and
# numpy warns on the way to each refusal
TestSessionMachine = pytest.mark.filterwarnings("ignore::RuntimeWarning")(
    SessionMachine.TestCase)


class BankMachine(RuleBasedStateMachine):
    """A CacheBank against a plain list of the latents it should hold: the
    last m * c pushed, oldest first, the window being all of them up to c,
    then the newest and every m-th before it, c at most."""

    @initialize(c=st.integers(1, 5), m=st.integers(1, 4),
                precision=st.sampled_from(["fp32", "fp16"]))
    def start(self, c, m, precision):
        self.c, self.m, self.precision = c, m, precision
        self.bank = CacheBank(c, m, precision)
        self.dtype = np.float16 if precision == "fp16" else np.float32
        self.stored = []

    def accept(self, latent):
        evicted = self.bank.push_evict(latent)
        if len(self.stored) == self.m * self.c:
            want = self.stored.pop(0)
            assert evicted.dtype == want.dtype
            np.testing.assert_array_equal(evicted, want)
        else:
            assert evicted is None
        self.stored.append(latent.astype(self.dtype))

    @rule(seed=SEEDS)
    def push(self, seed):
        latent = np.random.default_rng(seed).normal(size=LATENT)
        self.accept(latent.astype(np.float32))

    @precondition(lambda self: self.stored)
    @rule()
    def push_another_shape(self):
        with pytest.raises(ValueError, match="is not the stored"):
            self.bank.push_evict(np.zeros(LATENT[::-1], np.float32))

    @rule(value=st.sampled_from([np.nan, np.inf, -np.inf]))
    def push_non_finite(self, value):
        with pytest.raises(T.NonFiniteError):
            self.bank.push_evict(np.full(LATENT, value, np.float32))

    @rule()
    def push_beyond_float16(self):
        # finite in float32, inf once cast to float16
        latent = np.full(LATENT, 7e4, np.float32)
        if self.precision == "fp32":
            self.accept(latent)
        else:
            with pytest.raises(T.NonFiniteError):
                self.bank.push_evict(latent)

    @invariant()
    def holds_the_last_pushes(self):
        assert len(self.bank) == len(self.stored)
        assert self.bank.memory_footprint() == sum(
            lat.nbytes for lat in self.stored)

    @invariant()
    def window_is_the_schedule(self):
        picks = self.stored[::-1]  # newest first
        if len(picks) > self.c:
            picks = picks[::self.m][:self.c]
        window = self.bank.window()
        assert window.dtype == np.float32
        np.testing.assert_array_equal(
            window, np.array(picks, dtype=np.float32))


BankMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=30, derandomize=True,
    database=None, deadline=None)
TestBankMachine = pytest.mark.filterwarnings("ignore::RuntimeWarning")(
    BankMachine.TestCase)
