"""gshare branch predictor.

A global-history predictor with 2-bit saturating counters, used to
produce the branch-miss ratios of Table II and to charge misprediction
penalties in the timing model. Branch "PCs" are stable per-instruction
identifiers assigned by the interpreter.
"""

from __future__ import annotations


class GSharePredictor:
    def __init__(self, history_bits: int = 12):
        self.history_bits = history_bits
        self.table_size = 1 << history_bits
        self.mask = self.table_size - 1
        # 2-bit counters initialised to weakly-taken (2).
        self.counters = bytearray([2] * self.table_size)
        self.history = 0
        self.predictions = 0
        self.misses = 0

    def predict_and_update(self, pc: int, taken: bool) -> bool:
        """Record one executed conditional branch; returns True if the
        prediction was correct."""
        index = (pc ^ self.history) & self.mask
        counter = self.counters[index]
        predicted_taken = counter >= 2
        correct = predicted_taken == taken
        self.predictions += 1
        if not correct:
            self.misses += 1
        if taken:
            if counter < 3:
                self.counters[index] = counter + 1
        else:
            if counter > 0:
                self.counters[index] = counter - 1
        self.history = ((self.history << 1) | (1 if taken else 0)) & self.mask
        return correct

    def copy(self) -> "GSharePredictor":
        """Independent copy (resume states)."""
        new = object.__new__(GSharePredictor)
        new.__dict__.update(self.__dict__)
        new.counters = bytearray(self.counters)
        return new

    @property
    def miss_ratio(self) -> float:
        if self.predictions == 0:
            return 0.0
        return 100.0 * self.misses / self.predictions

    def reset(self) -> None:
        self.counters = bytearray([2] * self.table_size)
        self.history = 0
        self.predictions = 0
        self.misses = 0
