"""Regenerate ``reference.json``: the numeric workloads' expected outputs.

For every candidate perplexity offset and recipe it stores the mean
next-token NLL of the 16 x 128 validation batch, and for every candidate
decode prompt the 20 greedy tokens ``TransformerLM.generate`` produces
under ``mxfp4+`` — the engine-free decode path the benchmark's
``ServingEngine`` decode is checked against. Run it only when the model
or the numeric path changes on purpose:

    python3 perfbench/make_reference.py
"""

import json

import program  # noqa: F401  (puts the checkout's src on the path)

from repro.models.zoo import get_corpus, load_model
from repro.nn.tensor import no_grad
from repro.serve import QuantRecipe
from workloads import (
    CORPUS, DECODE_NEW_TOKENS, MODEL, PPL_BATCH, PPL_POOL, PPL_RECIPES, PPL_SEQ,
    PROMPT_LEN, PROMPT_POOL, PROMPT_STRIDE, REFERENCE,
)


def main() -> None:
    model = load_model(MODEL)
    corpus = get_corpus(CORPUS)
    contexts = {r: QuantRecipe.from_name(r).to_context() for r in PPL_RECIPES}
    nll = {r: {} for r in PPL_RECIPES}
    with no_grad():
        for off in PPL_POOL:
            tokens = corpus.val_batch(PPL_BATCH, PPL_SEQ, off)
            for recipe, qc in contexts.items():
                nll[recipe][str(off)] = model.loss(tokens, qc).item()
    tokens = {}
    for j in range(PROMPT_POOL):
        prompt = corpus.val[j * PROMPT_STRIDE : j * PROMPT_STRIDE + PROMPT_LEN]
        out = model.generate(prompt, DECODE_NEW_TOKENS, contexts["mxfp4+"])
        tokens[str(j)] = [int(t) for t in out]
    with open(REFERENCE, "w") as f:
        json.dump({"model": MODEL, "nll": nll, "tokens": tokens}, f, indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()
