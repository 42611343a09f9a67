"""The wire protocol: serving token probabilities over HTTP.

Any backend that answers /v1/tokenize and /v1/logits can drive the
decoder. A logits request carries a batch, and the decoder sends one per
step: the prompt as the prefix, one suffix per beam holding the tokens it
has generated, and the id lists of the windows it rescores, which come
back as texts. The connection holds the prompt's ids from the tokenize
reply, so each step sends the prefix as null: the prompt crosses once,
as text. Here the reference n-gram model is served in-process and
queried through the remote client; with top_k covering the full
vocabulary, each reply step carries the model's floor, and the remote
decode reproduces the local one bitwise.
"""

import threading

from ontodecode import (
    DecodeConfig,
    LmServer,
    Ontology,
    RemoteLm,
    build_lexicon,
    decode,
    train_ngram,
)

# Repetition sharpens the conditional distributions; with flat counts an
# add-one model prefers stopping immediately over any two-token path.
lm = train_ngram(
    ["the patient took aspirin"] * 8 + ["the patient slept well"] * 2, 2
)

server = LmServer(lm)  # port 0 picks a free port
thread = threading.Thread(target=server.serve_forever, daemon=True)
thread.start()
print("serving at", server.endpoint)

remote = RemoteLm(server.endpoint, top_k=lm.vocab_size)
ids = remote.tokenize("the patient")
print("tokenize('the patient') ->", ids)
print("detokenize back         ->", repr(remote.detokenize(ids)))

# One request for three continuations of "the patient" and their texts:
# the prefix is sent once, then one suffix each.
suffixes = [[], remote.tokenize("took"), remote.tokenize("slept")]
steps, texts = RemoteLm(server.endpoint, top_k=3).step(
    ids, suffixes, [ids + suffix for suffix in suffixes])
for text, step in zip(texts, steps):
    print(f"top-3 after {text!r}:",
          {t: round(lp, 4) for t, lp in step.logits.items()},
          "(truncated)" if step.truncated else "")

step = remote.next_logits(ids)
print("full step after 'the patient':", len(step.logits), "listed ids,",
      f"floor {step.floor:.4f} for the other {lm.vocab_size - len(step.logits)}")

onto = Ontology.from_dict({"classes": [{"id": "Aspirin", "label": "aspirin"}]})
lexicon = build_lexicon(onto)
cfg = DecodeConfig(beam_size=4, num_groups=2, diversity_penalty=0.5,
                   window=3, max_tokens=8)
note = "the patient took aspirin"
local_result = decode(lm, "the patient", onto, lexicon, None, note, cfg)
remote_result = decode(remote, "the patient", onto, lexicon, None, note, cfg)
print("\nlocal  decode:", repr(local_result.text), local_result.score)
print("remote decode:", repr(remote_result.text), remote_result.score)
print("bitwise equal:", local_result == remote_result)

server.shutdown()
