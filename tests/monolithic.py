"""Ablation fixture: whole-instruction single-mask grounding.

Instead of parsing the instruction into a program, every token is grounded
independently and the maps are summed into one blob that serves as both the
pick and the place distribution, mimicking a monolithic model that never
decomposes the sentence. Used as the baseline for the compositional-gap
checks."""

from __future__ import annotations

import numpy as np

from tablang import benchmark as bm
from tablang import ccg, world
from tablang.dsl import PROPERTY, ConceptToken
from tablang.executor import ControlParams, Pose2
from tablang.grounding import normalize, resample


def monolithic_episode_score(episode, backend, lexicon) -> float:
    task = bm.TaskSpec(episode.task_name, episode.split)
    scene = episode.scene
    tokens = sorted(set(ccg.tokenize(episode.instruction, lexicon)))
    pushy = "push" in tokens
    for _ in range(episode.max_steps):
        if bm.score_success(task, scene, episode) >= 1.0:
            break
        acc = np.zeros(backend.shape_for(scene))
        for tok in tokens:
            acc = acc + backend.ground(scene, ConceptToken(tok, PROPERTY)).values
        blob = normalize(acc)
        if blob.values.max() <= 0.0:
            break
        up = resample(blob, scene.height, scene.width).values
        flat = int(np.argmax(up))
        u, v = divmod(flat, up.shape[1])
        params = ControlParams(Pose2(u, v, 0), Pose2(u, v, 0),
                               "push" if pushy else "pick_place")
        scene, _ = world.apply(scene, params)
    return bm.score_success(task, scene, episode)
