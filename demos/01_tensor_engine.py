"""Tour of the tensor engine: forward pass, backprop, and an SGD step.

Builds a toy conv net, checks one gradient entry against a finite
difference, then takes a couple of optimizer steps on a single batch.
"""

import numpy as np

from prunekit import nn

rng = np.random.default_rng(0)

spec = nn.NetworkSpec(
    (nn.conv2d(1, 4, kernel=3, padding=1), nn.relu(), nn.maxpool2d(2),
     nn.conv2d(4, 6, kernel=3, padding=1), nn.relu(), nn.flatten(),
     nn.linear(6 * 4 * 4, 3), nn.softmax_ce_head()),
    input_dims=(1, 8, 8), num_classes=3)
params = nn.init_params(spec, seed=0)

print("layer output dims:", spec.activation_dims())

x = rng.normal(size=(2, 1, 8, 8))
labels = np.array([0, 2])
trace = nn.forward_collect(spec, params, x)
print("logits:\n", np.round(trace.logits, 3))
print("loss:", nn.cross_entropy(trace.logits, labels))

grads = nn.backward_collect(spec, params, trace, labels)

# One finite-difference spot check on the first conv weight.
h = 1e-5
w = params[0].weights
orig = w[0, 0, 1, 1]
w[0, 0, 1, 1] = orig + h
up = nn.cross_entropy(nn.forward_collect(spec, params, x).logits, labels)
w[0, 0, 1, 1] = orig - h
down = nn.cross_entropy(nn.forward_collect(spec, params, x).logits, labels)
w[0, 0, 1, 1] = orig
fd = (up - down) / (2 * h)
an = grads.weights[0].weights[0, 0, 1, 1]
print(f"dC/dW[0,0,1,1]: backprop {an:.8f} vs finite difference {fd:.8f}")

velocity = None
for step in range(3):
    trace = nn.forward_collect(spec, params, x)
    grads = nn.backward_collect(spec, params, trace, labels)
    params, velocity = nn.sgd_step(params, grads.weights, lr=0.1, velocity=velocity)
    print(f"step {step}: loss {grads.loss:.4f}")
