"""Approximation-aware finetuning on the toy vision transformer.

Trains a float baseline on the synthetic 10-class task, calibrates it,
measures the accuracy lost when every transformer block switches to a
truncating multiplier, then finetunes through the approximate forward path
(LUT forward, STE backward) and measures how much comes back.
"""

from axvit import (
    ModelConfig,
    TrainHyperparams,
    builtin_catalog,
    calibrate,
    evaluate_accuracy,
    finetune,
    init_model,
)
from axvit.data import images_to_patches, synthetic_dataset
from axvit.training import train_float

catalog = builtin_catalog()
images, labels = synthetic_dataset(1600, seed=7)
patches = images_to_patches(images)

model = init_model(ModelConfig(), seed=0)
train_float(model, patches, labels,
            TrainHyperparams(learning_rate=3e-3, iterations=400,
                             batch_size=64, data_fraction=1.0, seed=0))
calibrate(model, patches[:256])

exact = ["mul8s_1KV6"] * model.cfg.num_layers
approx = ["mul8s_1L2H"] * model.cfg.num_layers

acc_exact = evaluate_accuracy(model, patches[:512], labels[:512], exact, catalog)
acc_before = evaluate_accuracy(model, patches[:512], labels[:512], approx, catalog)
print(f"quantized baseline accuracy: {acc_exact:.4f}")
print(f"with 2-bit truncation:       {acc_before:.4f}")

# Finetune with a gentle learning rate so the weights adapt to the LUT
# error without leaving the calibrated regime.
finetune(model, approx, patches, labels,
         TrainHyperparams(learning_rate=5e-5, iterations=200, batch_size=32,
                          data_fraction=1.0, seed=0), catalog)
acc_after = evaluate_accuracy(model, patches[:512], labels[:512], approx, catalog)
print(f"after finetuning:            {acc_after:.4f}")
drop = acc_exact - acc_before
if drop > 0 and acc_after >= acc_exact:
    print("recovered the full accuracy drop")
elif drop > 0:
    print(f"recovered {100 * (acc_after - acc_before) / drop:.0f}% "
          f"of the accuracy drop")
