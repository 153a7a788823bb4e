"""The shared ISA analyses (:mod:`repro.isa.cfg`) and the answers they pin.

The values below were recorded before leaders, successors,
(post-)dominators, liveness and instruction effects moved into one
module, so every consumer of the analyses is held to what it produced
before: the scheduled program text of every kernel under every schedule
the suite names, the reconvergence annotations and fused blocks of each
of those programs, and the scoreboarded cycle count of every kernel on
the scalar and megaop engines.
"""

from __future__ import annotations

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gma.device import GmaDevice
from repro.gma.timing import GmaTimingConfig
from repro.isa import cfg
from repro.isa.assembler import assemble
from repro.isa.blocks import discover_blocks
from repro.isa.predecode import predecode_program
from repro.isa.transforms import (apply_schedule, find_counted_loops,
                                  parse_schedule)
from repro.isa.tuning import DEFAULT_CANDIDATES
from repro.kernels import ALL_KERNELS
from repro.kernels.harness import run_kernel_on_gma
from repro.memory.address_space import AddressSpace
from repro.perf import BENCH_GEOMETRIES, SMOKE_GEOMETRIES

#: One spec per primitive, then the tuner's menu.
SPECS = ("unroll4", "reorder", "stage_mem") + DEFAULT_CANDIDATES
GEOMETRIES = {"bench": BENCH_GEOMETRIES, "smoke": SMOKE_GEOMETRIES}


def _digest(value) -> str:
    return hashlib.sha256(str(value).encode()).hexdigest()[:16]


def program_digests(program):
    """(source, reconvergence annotations, fused blocks) digests."""
    pre = predecode_program(program)
    annotations = tuple((ip, p.reconv, p.repackable)
                        for ip, p in enumerate(pre.instrs))
    blocks = sorted((b.start, b.end, b.body_len, b.term)
                    for b in discover_blocks(pre, program.labels).values())
    return (hashlib.sha256(program.source.encode()).hexdigest()[:16],
            _digest(annotations), _digest(blocks))


def scheduled_program(kernel, geom, spec):
    program = assemble(kernel.asm_source(geom), name=kernel.abbrev)
    return apply_schedule(program, parse_schedule(spec),
                          kernel.constants(geom))


def scoreboard_cycles(kernel, engine):
    """One smoke frame's simulated cycles on a scoreboarded device."""
    space = AddressSpace()
    device = GmaDevice(space, engine=engine,
                       config=GmaTimingConfig(scoreboard=True,
                                              threads_per_eu=1))
    geom = SMOKE_GEOMETRIES[kernel.abbrev]
    return run_kernel_on_gma(kernel, geom, device=device, space=space,
                             max_frames=1).gma_cycles


#: (kernel, geometry, spec) -> (source sha256, annotations, blocks)
PINNED_PROGRAMS = {
    ('LinearFilter', 'bench', 'unroll4'):
        ('fbab04675217a576', 'd69bb59159b5bee4', 'ba4d6b1754ed0fb6'),
    ('LinearFilter', 'bench', 'reorder'):
        ('30de68480ee38183', 'd69bb59159b5bee4', 'ba4d6b1754ed0fb6'),
    ('LinearFilter', 'bench', 'stage_mem'):
        ('fbab04675217a576', 'd69bb59159b5bee4', 'ba4d6b1754ed0fb6'),
    ('LinearFilter', 'bench', 'baseline'):
        ('fbab04675217a576', 'd69bb59159b5bee4', 'ba4d6b1754ed0fb6'),
    ('LinearFilter', 'bench', 'unroll4+stage_mem'):
        ('fbab04675217a576', 'd69bb59159b5bee4', 'ba4d6b1754ed0fb6'),
    ('LinearFilter', 'bench', 'unroll8+stage_mem'):
        ('fbab04675217a576', 'd69bb59159b5bee4', 'ba4d6b1754ed0fb6'),
    ('LinearFilter', 'bench', 'unroll8+stage_mem+reorder'):
        ('30de68480ee38183', 'd69bb59159b5bee4', 'ba4d6b1754ed0fb6'),
    ('LinearFilter', 'smoke', 'unroll4'):
        ('fbab04675217a576', 'd69bb59159b5bee4', 'ba4d6b1754ed0fb6'),
    ('LinearFilter', 'smoke', 'reorder'):
        ('30de68480ee38183', 'd69bb59159b5bee4', 'ba4d6b1754ed0fb6'),
    ('LinearFilter', 'smoke', 'stage_mem'):
        ('fbab04675217a576', 'd69bb59159b5bee4', 'ba4d6b1754ed0fb6'),
    ('LinearFilter', 'smoke', 'baseline'):
        ('fbab04675217a576', 'd69bb59159b5bee4', 'ba4d6b1754ed0fb6'),
    ('LinearFilter', 'smoke', 'unroll4+stage_mem'):
        ('fbab04675217a576', 'd69bb59159b5bee4', 'ba4d6b1754ed0fb6'),
    ('LinearFilter', 'smoke', 'unroll8+stage_mem'):
        ('fbab04675217a576', 'd69bb59159b5bee4', 'ba4d6b1754ed0fb6'),
    ('LinearFilter', 'smoke', 'unroll8+stage_mem+reorder'):
        ('30de68480ee38183', 'd69bb59159b5bee4', 'ba4d6b1754ed0fb6'),
    ('SepiaTone', 'bench', 'unroll4'):
        ('b1347ce2f3092e5c', 'f48a3282a4b11af2', 'a594576cd168b128'),
    ('SepiaTone', 'bench', 'reorder'):
        ('ae6de22a4542bd21', 'f48a3282a4b11af2', 'a594576cd168b128'),
    ('SepiaTone', 'bench', 'stage_mem'):
        ('b1347ce2f3092e5c', 'f48a3282a4b11af2', 'a594576cd168b128'),
    ('SepiaTone', 'bench', 'baseline'):
        ('b1347ce2f3092e5c', 'f48a3282a4b11af2', 'a594576cd168b128'),
    ('SepiaTone', 'bench', 'unroll4+stage_mem'):
        ('b1347ce2f3092e5c', 'f48a3282a4b11af2', 'a594576cd168b128'),
    ('SepiaTone', 'bench', 'unroll8+stage_mem'):
        ('b1347ce2f3092e5c', 'f48a3282a4b11af2', 'a594576cd168b128'),
    ('SepiaTone', 'bench', 'unroll8+stage_mem+reorder'):
        ('ae6de22a4542bd21', 'f48a3282a4b11af2', 'a594576cd168b128'),
    ('SepiaTone', 'smoke', 'unroll4'):
        ('b1347ce2f3092e5c', 'f48a3282a4b11af2', 'a594576cd168b128'),
    ('SepiaTone', 'smoke', 'reorder'):
        ('ae6de22a4542bd21', 'f48a3282a4b11af2', 'a594576cd168b128'),
    ('SepiaTone', 'smoke', 'stage_mem'):
        ('b1347ce2f3092e5c', 'f48a3282a4b11af2', 'a594576cd168b128'),
    ('SepiaTone', 'smoke', 'baseline'):
        ('b1347ce2f3092e5c', 'f48a3282a4b11af2', 'a594576cd168b128'),
    ('SepiaTone', 'smoke', 'unroll4+stage_mem'):
        ('b1347ce2f3092e5c', 'f48a3282a4b11af2', 'a594576cd168b128'),
    ('SepiaTone', 'smoke', 'unroll8+stage_mem'):
        ('b1347ce2f3092e5c', 'f48a3282a4b11af2', 'a594576cd168b128'),
    ('SepiaTone', 'smoke', 'unroll8+stage_mem+reorder'):
        ('ae6de22a4542bd21', 'f48a3282a4b11af2', 'a594576cd168b128'),
    ('FGT', 'bench', 'unroll4'):
        ('6f88f685608b70ab', '999e409fddce824f', '0a576c7fa469af38'),
    ('FGT', 'bench', 'reorder'):
        ('7a94fe09659f09ac', '3220600d77687b72', '52b8cad4f1ab22b0'),
    ('FGT', 'bench', 'stage_mem'):
        ('b03989971538cc04', '3220600d77687b72', '52b8cad4f1ab22b0'),
    ('FGT', 'bench', 'baseline'):
        ('b03989971538cc04', '3220600d77687b72', '52b8cad4f1ab22b0'),
    ('FGT', 'bench', 'unroll4+stage_mem'):
        ('6f88f685608b70ab', '999e409fddce824f', '0a576c7fa469af38'),
    ('FGT', 'bench', 'unroll8+stage_mem'):
        ('d6575f3fe4a284eb', '00d16a19a251629b', '89cb5179aeaf4092'),
    ('FGT', 'bench', 'unroll8+stage_mem+reorder'):
        ('e178a1e3a2a2ebf0', '00d16a19a251629b', '89cb5179aeaf4092'),
    ('FGT', 'smoke', 'unroll4'):
        ('6f88f685608b70ab', '999e409fddce824f', '0a576c7fa469af38'),
    ('FGT', 'smoke', 'reorder'):
        ('7a94fe09659f09ac', '3220600d77687b72', '52b8cad4f1ab22b0'),
    ('FGT', 'smoke', 'stage_mem'):
        ('b03989971538cc04', '3220600d77687b72', '52b8cad4f1ab22b0'),
    ('FGT', 'smoke', 'baseline'):
        ('b03989971538cc04', '3220600d77687b72', '52b8cad4f1ab22b0'),
    ('FGT', 'smoke', 'unroll4+stage_mem'):
        ('6f88f685608b70ab', '999e409fddce824f', '0a576c7fa469af38'),
    ('FGT', 'smoke', 'unroll8+stage_mem'):
        ('6f88f685608b70ab', '999e409fddce824f', '0a576c7fa469af38'),
    ('FGT', 'smoke', 'unroll8+stage_mem+reorder'):
        ('325fb7d146698851', '999e409fddce824f', '0a576c7fa469af38'),
    ('Bicubic', 'bench', 'unroll4'):
        ('8feeb5d305e33623', '1307c3bd533532d3', 'a1f581200394c684'),
    ('Bicubic', 'bench', 'reorder'):
        ('e3f1ee143db97e96', '9fad08741ffec34b', '3bb70dd23cffefa8'),
    ('Bicubic', 'bench', 'stage_mem'):
        ('d08268ba847d687b', '9fad08741ffec34b', '3bb70dd23cffefa8'),
    ('Bicubic', 'bench', 'baseline'):
        ('d08268ba847d687b', '9fad08741ffec34b', '3bb70dd23cffefa8'),
    ('Bicubic', 'bench', 'unroll4+stage_mem'):
        ('8feeb5d305e33623', '1307c3bd533532d3', 'a1f581200394c684'),
    ('Bicubic', 'bench', 'unroll8+stage_mem'):
        ('8feeb5d305e33623', '1307c3bd533532d3', 'a1f581200394c684'),
    ('Bicubic', 'bench', 'unroll8+stage_mem+reorder'):
        ('c5caf417a6c1fca4', '1307c3bd533532d3', 'a1f581200394c684'),
    ('Bicubic', 'smoke', 'unroll4'):
        ('8feeb5d305e33623', '1307c3bd533532d3', 'a1f581200394c684'),
    ('Bicubic', 'smoke', 'reorder'):
        ('e3f1ee143db97e96', '9fad08741ffec34b', '3bb70dd23cffefa8'),
    ('Bicubic', 'smoke', 'stage_mem'):
        ('d08268ba847d687b', '9fad08741ffec34b', '3bb70dd23cffefa8'),
    ('Bicubic', 'smoke', 'baseline'):
        ('d08268ba847d687b', '9fad08741ffec34b', '3bb70dd23cffefa8'),
    ('Bicubic', 'smoke', 'unroll4+stage_mem'):
        ('8feeb5d305e33623', '1307c3bd533532d3', 'a1f581200394c684'),
    ('Bicubic', 'smoke', 'unroll8+stage_mem'):
        ('8feeb5d305e33623', '1307c3bd533532d3', 'a1f581200394c684'),
    ('Bicubic', 'smoke', 'unroll8+stage_mem+reorder'):
        ('c5caf417a6c1fca4', '1307c3bd533532d3', 'a1f581200394c684'),
    ('Kalman', 'bench', 'unroll4'):
        ('70e841659fede03e', 'ec8505e23fae1847', 'daf07f4e51da461d'),
    ('Kalman', 'bench', 'reorder'):
        ('6290507450afe74c', 'ebe299c4171ff7e6', 'e99e2720c17c6788'),
    ('Kalman', 'bench', 'stage_mem'):
        ('7f9cc2e6f5aeef38', 'ebe299c4171ff7e6', 'e99e2720c17c6788'),
    ('Kalman', 'bench', 'baseline'):
        ('7f9cc2e6f5aeef38', 'ebe299c4171ff7e6', 'e99e2720c17c6788'),
    ('Kalman', 'bench', 'unroll4+stage_mem'):
        ('1b72e2fe711f577d', '9de92f1cdf73ffed', 'a811eb2a3a09beef'),
    ('Kalman', 'bench', 'unroll8+stage_mem'):
        ('cc694cce437d1172', '4842c9b68201c8e7', 'b4559918951a1841'),
    ('Kalman', 'bench', 'unroll8+stage_mem+reorder'):
        ('cc694cce437d1172', '4842c9b68201c8e7', 'b4559918951a1841'),
    ('Kalman', 'smoke', 'unroll4'):
        ('70e841659fede03e', 'ec8505e23fae1847', 'daf07f4e51da461d'),
    ('Kalman', 'smoke', 'reorder'):
        ('6290507450afe74c', 'ebe299c4171ff7e6', 'e99e2720c17c6788'),
    ('Kalman', 'smoke', 'stage_mem'):
        ('7f9cc2e6f5aeef38', 'ebe299c4171ff7e6', 'e99e2720c17c6788'),
    ('Kalman', 'smoke', 'baseline'):
        ('7f9cc2e6f5aeef38', 'ebe299c4171ff7e6', 'e99e2720c17c6788'),
    ('Kalman', 'smoke', 'unroll4+stage_mem'):
        ('1b72e2fe711f577d', '9de92f1cdf73ffed', 'a811eb2a3a09beef'),
    ('Kalman', 'smoke', 'unroll8+stage_mem'):
        ('cc694cce437d1172', '4842c9b68201c8e7', 'b4559918951a1841'),
    ('Kalman', 'smoke', 'unroll8+stage_mem+reorder'):
        ('cc694cce437d1172', '4842c9b68201c8e7', 'b4559918951a1841'),
    ('FMD', 'bench', 'unroll4'):
        ('7a1435649ff1ea4c', 'f16c32f5e423699a', '9823da5f7a31240a'),
    ('FMD', 'bench', 'reorder'):
        ('62f1f8c9abe819c0', 'bfc41f58b6fb040a', '9d01e6568819b762'),
    ('FMD', 'bench', 'stage_mem'):
        ('5da0a48db3e767da', 'bfc41f58b6fb040a', '9d01e6568819b762'),
    ('FMD', 'bench', 'baseline'):
        ('5da0a48db3e767da', 'bfc41f58b6fb040a', '9d01e6568819b762'),
    ('FMD', 'bench', 'unroll4+stage_mem'):
        ('7a1435649ff1ea4c', 'f16c32f5e423699a', '9823da5f7a31240a'),
    ('FMD', 'bench', 'unroll8+stage_mem'):
        ('6c9defc164dbe04f', '61599c2b26064181', 'c7e74bfecd0ee14b'),
    ('FMD', 'bench', 'unroll8+stage_mem+reorder'):
        ('c8d12e6e21fcff6d', '61599c2b26064181', 'c7e74bfecd0ee14b'),
    ('FMD', 'smoke', 'unroll4'):
        ('8a4d18491f348aaf', 'f16c32f5e423699a', '9823da5f7a31240a'),
    ('FMD', 'smoke', 'reorder'):
        ('8b56c4c48d8ee820', 'bfc41f58b6fb040a', '9d01e6568819b762'),
    ('FMD', 'smoke', 'stage_mem'):
        ('a476d3f8bb8bd01f', 'bfc41f58b6fb040a', '9d01e6568819b762'),
    ('FMD', 'smoke', 'baseline'):
        ('a476d3f8bb8bd01f', 'bfc41f58b6fb040a', '9d01e6568819b762'),
    ('FMD', 'smoke', 'unroll4+stage_mem'):
        ('8a4d18491f348aaf', 'f16c32f5e423699a', '9823da5f7a31240a'),
    ('FMD', 'smoke', 'unroll8+stage_mem'):
        ('bda834aa5003bf4b', '61599c2b26064181', 'c7e74bfecd0ee14b'),
    ('FMD', 'smoke', 'unroll8+stage_mem+reorder'):
        ('eae6f500818d7e40', '61599c2b26064181', 'c7e74bfecd0ee14b'),
    ('AlphaBlend', 'bench', 'unroll4'):
        ('fbb1775494e25153', '7e5cc983b0c94384', '3ee02dd82b934f28'),
    ('AlphaBlend', 'bench', 'reorder'):
        ('6d514ae6e6a59f32', '7e5cc983b0c94384', '3ee02dd82b934f28'),
    ('AlphaBlend', 'bench', 'stage_mem'):
        ('fbb1775494e25153', '7e5cc983b0c94384', '3ee02dd82b934f28'),
    ('AlphaBlend', 'bench', 'baseline'):
        ('fbb1775494e25153', '7e5cc983b0c94384', '3ee02dd82b934f28'),
    ('AlphaBlend', 'bench', 'unroll4+stage_mem'):
        ('fbb1775494e25153', '7e5cc983b0c94384', '3ee02dd82b934f28'),
    ('AlphaBlend', 'bench', 'unroll8+stage_mem'):
        ('30decc6f3866b187', 'e033df7beab64a1a', '21ecda004fb5e67f'),
    ('AlphaBlend', 'bench', 'unroll8+stage_mem+reorder'):
        ('1af4ba39d6f040bb', 'e033df7beab64a1a', '21ecda004fb5e67f'),
    ('AlphaBlend', 'smoke', 'unroll4'):
        ('fbb1775494e25153', '7e5cc983b0c94384', '3ee02dd82b934f28'),
    ('AlphaBlend', 'smoke', 'reorder'):
        ('6d514ae6e6a59f32', '7e5cc983b0c94384', '3ee02dd82b934f28'),
    ('AlphaBlend', 'smoke', 'stage_mem'):
        ('fbb1775494e25153', '7e5cc983b0c94384', '3ee02dd82b934f28'),
    ('AlphaBlend', 'smoke', 'baseline'):
        ('fbb1775494e25153', '7e5cc983b0c94384', '3ee02dd82b934f28'),
    ('AlphaBlend', 'smoke', 'unroll4+stage_mem'):
        ('fbb1775494e25153', '7e5cc983b0c94384', '3ee02dd82b934f28'),
    ('AlphaBlend', 'smoke', 'unroll8+stage_mem'):
        ('30decc6f3866b187', 'e033df7beab64a1a', '21ecda004fb5e67f'),
    ('AlphaBlend', 'smoke', 'unroll8+stage_mem+reorder'):
        ('1af4ba39d6f040bb', 'e033df7beab64a1a', '21ecda004fb5e67f'),
    ('BOB', 'bench', 'unroll4'):
        ('25811479a5581279', 'e288b30ff739ce70', 'bd293a4e798fd78b'),
    ('BOB', 'bench', 'reorder'):
        ('494977c598c5904f', '4ca952dbace05c72', '52c7695ef842b5f4'),
    ('BOB', 'bench', 'stage_mem'):
        ('aeb50e74bd04cd11', '3220600d77687b72', '31006100e30b2cdd'),
    ('BOB', 'bench', 'baseline'):
        ('937e5f2b73131352', '4ca952dbace05c72', '52c7695ef842b5f4'),
    ('BOB', 'bench', 'unroll4+stage_mem'):
        ('aa836c53580c49bf', '1949d06788376920', 'd9ec207fe6af3b3c'),
    ('BOB', 'bench', 'unroll8+stage_mem'):
        ('a15b56c72d0a4ccf', '20464e6441601ef8', '609379d50786604f'),
    ('BOB', 'bench', 'unroll8+stage_mem+reorder'):
        ('a4ff995d3f8c02a6', '20464e6441601ef8', '609379d50786604f'),
    ('BOB', 'smoke', 'unroll4'):
        ('25811479a5581279', 'e288b30ff739ce70', 'bd293a4e798fd78b'),
    ('BOB', 'smoke', 'reorder'):
        ('494977c598c5904f', '4ca952dbace05c72', '52c7695ef842b5f4'),
    ('BOB', 'smoke', 'stage_mem'):
        ('aeb50e74bd04cd11', '3220600d77687b72', '31006100e30b2cdd'),
    ('BOB', 'smoke', 'baseline'):
        ('937e5f2b73131352', '4ca952dbace05c72', '52c7695ef842b5f4'),
    ('BOB', 'smoke', 'unroll4+stage_mem'):
        ('aa836c53580c49bf', '1949d06788376920', 'd9ec207fe6af3b3c'),
    ('BOB', 'smoke', 'unroll8+stage_mem'):
        ('a15b56c72d0a4ccf', '20464e6441601ef8', '609379d50786604f'),
    ('BOB', 'smoke', 'unroll8+stage_mem+reorder'):
        ('a4ff995d3f8c02a6', '20464e6441601ef8', '609379d50786604f'),
    ('ADVDI', 'bench', 'unroll4'):
        ('f040818a0a41cabd', '03b065994c61a909', '5020afc96e8c8f4a'),
    ('ADVDI', 'bench', 'reorder'):
        ('16b6c1f76e0886be', '03b065994c61a909', '5020afc96e8c8f4a'),
    ('ADVDI', 'bench', 'stage_mem'):
        ('a6a05b34a4dab1e7', '9dc626f47be6be5c', 'a69ce63160783607'),
    ('ADVDI', 'bench', 'baseline'):
        ('f040818a0a41cabd', '03b065994c61a909', '5020afc96e8c8f4a'),
    ('ADVDI', 'bench', 'unroll4+stage_mem'):
        ('a6a05b34a4dab1e7', '9dc626f47be6be5c', 'a69ce63160783607'),
    ('ADVDI', 'bench', 'unroll8+stage_mem'):
        ('e322eb049640a61c', '1692fe84a7ee07b1', 'd8667a54723170c8'),
    ('ADVDI', 'bench', 'unroll8+stage_mem+reorder'):
        ('ae4d51a93b4b43e2', '1692fe84a7ee07b1', 'd8667a54723170c8'),
    ('ADVDI', 'smoke', 'unroll4'):
        ('f040818a0a41cabd', '03b065994c61a909', '5020afc96e8c8f4a'),
    ('ADVDI', 'smoke', 'reorder'):
        ('16b6c1f76e0886be', '03b065994c61a909', '5020afc96e8c8f4a'),
    ('ADVDI', 'smoke', 'stage_mem'):
        ('a6a05b34a4dab1e7', '9dc626f47be6be5c', 'a69ce63160783607'),
    ('ADVDI', 'smoke', 'baseline'):
        ('f040818a0a41cabd', '03b065994c61a909', '5020afc96e8c8f4a'),
    ('ADVDI', 'smoke', 'unroll4+stage_mem'):
        ('a6a05b34a4dab1e7', '9dc626f47be6be5c', 'a69ce63160783607'),
    ('ADVDI', 'smoke', 'unroll8+stage_mem'):
        ('e322eb049640a61c', '1692fe84a7ee07b1', 'd8667a54723170c8'),
    ('ADVDI', 'smoke', 'unroll8+stage_mem+reorder'):
        ('ae4d51a93b4b43e2', '1692fe84a7ee07b1', 'd8667a54723170c8'),
    ('ProcAmp', 'bench', 'unroll4'):
        ('821bc29d751aa403', '00d16a19a251629b', '89cb5179aeaf4092'),
    ('ProcAmp', 'bench', 'reorder'):
        ('5c1b4848914b2f9f', '4d6e0f83b9b1688d', '4a8c68311b9fef63'),
    ('ProcAmp', 'bench', 'stage_mem'):
        ('c41c3988c537997b', '4d6e0f83b9b1688d', '4a8c68311b9fef63'),
    ('ProcAmp', 'bench', 'baseline'):
        ('c41c3988c537997b', '4d6e0f83b9b1688d', '4a8c68311b9fef63'),
    ('ProcAmp', 'bench', 'unroll4+stage_mem'):
        ('05467d68e59507ec', 'e23458df5a8e1bae', '3cecfd350c5d63c8'),
    ('ProcAmp', 'bench', 'unroll8+stage_mem'):
        ('37e20ed8f1df4e79', '17b3475884d8abf5', 'f5f8d66002fc6e79'),
    ('ProcAmp', 'bench', 'unroll8+stage_mem+reorder'):
        ('7a706980fafa04f8', '17b3475884d8abf5', 'f5f8d66002fc6e79'),
    ('ProcAmp', 'smoke', 'unroll4'):
        ('821bc29d751aa403', '00d16a19a251629b', '89cb5179aeaf4092'),
    ('ProcAmp', 'smoke', 'reorder'):
        ('5c1b4848914b2f9f', '4d6e0f83b9b1688d', '4a8c68311b9fef63'),
    ('ProcAmp', 'smoke', 'stage_mem'):
        ('c41c3988c537997b', '4d6e0f83b9b1688d', '4a8c68311b9fef63'),
    ('ProcAmp', 'smoke', 'baseline'):
        ('c41c3988c537997b', '4d6e0f83b9b1688d', '4a8c68311b9fef63'),
    ('ProcAmp', 'smoke', 'unroll4+stage_mem'):
        ('05467d68e59507ec', 'e23458df5a8e1bae', '3cecfd350c5d63c8'),
    ('ProcAmp', 'smoke', 'unroll8+stage_mem'):
        ('37e20ed8f1df4e79', '17b3475884d8abf5', 'f5f8d66002fc6e79'),
    ('ProcAmp', 'smoke', 'unroll8+stage_mem+reorder'):
        ('7a706980fafa04f8', '17b3475884d8abf5', 'f5f8d66002fc6e79'),
}

#: kernel -> (scalar, megaop) scoreboarded gma_cycles, one smoke frame
PINNED_SCOREBOARD_CYCLES = {
    'LinearFilter': (1670.0, 1670.0),
    'SepiaTone': (2304.0, 2304.0),
    'FGT': (630.0, 630.0),
    'Bicubic': (21964.0, 21964.0),
    'Kalman': (3074.0, 3074.0),
    'FMD': (4582.0, 4582.0),
    'AlphaBlend': (28706.0, 28706.0),
    'BOB': (2715.0, 2715.0),
    'ADVDI': (14354.0, 14354.0),
    'ProcAmp': (15314.0, 15314.0),
}


@pytest.mark.parametrize("geometry", sorted(GEOMETRIES))
@pytest.mark.parametrize("kernel_cls", ALL_KERNELS,
                         ids=[cls.abbrev for cls in ALL_KERNELS])
def test_scheduled_programs_match_pins(kernel_cls, geometry):
    kernel = kernel_cls()
    geom = GEOMETRIES[geometry][kernel.abbrev]
    for spec in SPECS:
        program = scheduled_program(kernel, geom, spec)
        assert program_digests(program) == \
            PINNED_PROGRAMS[(kernel.abbrev, geometry, spec)], spec


@pytest.mark.parametrize("kernel_cls", ALL_KERNELS,
                         ids=[cls.abbrev for cls in ALL_KERNELS])
def test_scoreboard_cycles_match_pins(kernel_cls):
    kernel = kernel_cls()
    got = tuple(scoreboard_cycles(kernel, engine)
                for engine in ("scalar", "megaop"))
    assert got == PINNED_SCOREBOARD_CYCLES[kernel.abbrev]


# -- the shared routines ----------------------------------------------------


def _reachable(succs, roots, removed):
    seen = set()
    stack = [r for r in roots if r != removed]
    while stack:
        node = stack.pop()
        if node in seen:
            continue
        seen.add(node)
        stack.extend(s for s in succs[node] if s != removed)
    return seen


@st.composite
def graphs(draw):
    count = draw(st.integers(1, 12))
    node = st.integers(0, count - 1)
    succs = [draw(st.lists(node, max_size=3)) for _ in range(count)]
    roots = draw(st.lists(node, min_size=1, max_size=2, unique=True))
    return succs, roots


@settings(max_examples=300, deadline=None)
@given(graphs(), st.booleans())
def test_dominators_match_brute_force(graph, reverse):
    """d dominates n exactly when n is unreachable from the roots once d
    is removed, on the forward graph and on its reverse alike."""
    succs, roots = graph
    if reverse:
        succs = cfg.reverse_graph(succs)
    dom = cfg.dominators(cfg.reverse_graph(succs), roots)
    for d in range(len(succs)):
        reach = _reachable(succs, roots, removed=d)
        assert cfg.reachable(succs, roots, avoid=d) == reach
        for n in range(len(succs)):
            assert bool(dom[n] >> d & 1) == (n not in reach), (d, n)


def test_post_dominators_route_every_exit_through_one_node():
    """A branch to a trailing label leaves the program there: the exit
    is a node of its own, so no arm post-dominates the branch."""
    program = assemble("""
        (p0) jmp done
        add.1.dw vr1 = vr1, 1
    done:
    """)
    succs = cfg.instruction_successors(program.instructions, program.labels)
    assert succs == [(2, 1), (2,)]
    assert cfg.post_dominators(succs) == [0b01, 0b10]
    # and predecode annotates the branch instead of crashing
    assert predecode_program(program).instrs[0].reconv is None


def test_effects_record():
    """A guarded write also reads its destination, a store writes its
    surface, predicates get scoreboard keys apart from registers, and
    copies differing only in source line share one record."""
    program = assemble("""
        (p1) add.1.dw vr2 = vr3, 1
        st.1.dw (S, vr4, 0) = vr5
        cmp.lt.1.dw p2 = vr6, 8
        fence
        add.1.dw vr2 = vr3, 1
        add.1.dw vr2 = vr3, 1
    """)
    add, store, cmp, fence, plain, copy = map(cfg.effects,
                                              program.instructions)
    assert (add.reg_uses, add.reg_defs, add.pred_uses) == ({2, 3}, {2}, {1})
    assert add.sb_uses == {2, 3, ~1}
    assert (store.mem_reads, store.mem_writes) == (set(), {"S"})
    assert store.reg_uses == {4, 5} and not store.barrier
    assert (cmp.pred_defs, cmp.sb_defs) == ({2}, {~2})
    assert fence.barrier
    assert plain.reg_uses == {3} and plain is copy


def test_counted_loop_sees_every_branch_into_its_head():
    """Two labels on one loop head: a second branch in through the other
    label re-enters mid-count, so the loop is not a counted loop (it
    would unroll into 16 increments where the program makes 14)."""
    program = assemble("""
        mov.1.dw vr1 = 0
        mov.1.dw vr5 = 0
    A:
    B:
        add.1.dw vr5 = vr5, 1
        add.1.dw vr1 = vr1, 1
        cmp.lt.1.dw p1 = vr1, 12
        br p1, A
        cmp.lt.1.dw p3 = vr5, 14
        br p3, B
        end
    """)
    assert find_counted_loops(program) == []
