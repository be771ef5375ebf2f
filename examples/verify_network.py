"""Verifying a neural network by compiling it to a circuit (Figs 28–29).

We train a small binarized neural network to tell digit 0 from digit 1
on synthetic binary images, compile it into an OBDD with identical
input-output behaviour, and then do what is impossible on the raw net:
exact explanations, exact robustness over ALL inputs, and neuron-level
interpretation.

Run:  python examples/verify_network.py
"""

import random

from repro.classifiers import (BinarizedNeuralNetwork, compile_bnn,
                               digit_dataset, digit_template,
                               render_image)
from repro.explain import sufficient_reasons
from repro.obdd import model_count
from repro.robust import decision_robustness, robustness_summary

SIZE = 4  # 4x4 images = 16 inputs (the paper uses 16x16; see DESIGN.md)


def main():
    rng = random.Random(28)
    instances, labels = digit_dataset(0, 1, 80, size=SIZE, noise=0.08,
                                      rng=rng)
    split = int(0.75 * len(instances))
    network = BinarizedNeuralNetwork.train(instances[:split],
                                           labels[:split],
                                           hidden=(4,), seed=1)
    accuracy = network.accuracy(instances[split:], labels[split:])
    print(f"trained {network!r}; test accuracy {accuracy:.2%}\n")

    circuit, layers = compile_bnn(network)
    print(f"compiled into an OBDD with {circuit.size()} decision nodes")
    positives = model_count(circuit)
    print(f"of all 2^{SIZE * SIZE} images, the net calls "
          f"{positives} 'digit 0'\n")

    image = digit_template(0, SIZE)
    assert circuit.evaluate(image) == network.forward(image)
    print("a clean digit-0 image:")
    print(render_image(image, SIZE))
    # an OBDD is a Decision-DNNF: enumerate every sufficient reason on
    # its IR (on the complement's for a negative decision), smallest first
    trigger = circuit if circuit.evaluate(image) else \
        circuit.manager.negate(circuit)
    reason = sufficient_reasons(trigger.to_ir(), image,
                                smallest=True)["smallest"]
    print(f"\nsmallest sufficient reason uses {len(reason)} of "
          f"{SIZE * SIZE} pixels (paper's Fig 28: 3 of 256):")
    highlight = {v: False for v in image}
    for lit in reason:
        highlight[abs(lit)] = True
    print(render_image(highlight, SIZE, on="*", off="."))
    print("(keep the * pixels as they are and the classification can "
          "never change)")

    print(f"\nrobustness of this decision: "
          f"{decision_robustness(circuit, image):.0f} pixel flips")
    summary = robustness_summary(circuit)
    print(f"model robustness (avg over ALL {2 ** (SIZE * SIZE)} images): "
          f"{summary['model_robustness']:.2f}")
    print(f"max robustness: {summary['max_robustness']}")

    # neuron-level interpretation (Section 5.2)
    print("\nneuron interpretation: for each hidden neuron, the share "
          "of all inputs that make it fire:")
    total = 2 ** (SIZE * SIZE)
    for i, neuron in enumerate(layers[0]):
        share = model_count(neuron) / total
        print(f"  neuron {i}: fires on {share:.1%} of inputs "
              f"(circuit size {neuron.size()})")


if __name__ == "__main__":
    main()
