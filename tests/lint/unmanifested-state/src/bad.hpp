// Fixture: incomplete, duplicated and typo'd SIM_STATE manifests.

class Counter final : public sim::Component {
 public:
  void evaluate() override;

 private:
  long count_ = 0;
  long pending_ = 0;
  SIM_STATE_MEMBERS(count_, count_, tyop_);
};

class NoManifest final : public sim::Component {
 public:
  void evaluate() override;

 private:
  long level_ = 0;
};

// An out-of-graph state holder: its books rewind through the manifest too.
class Books final : public sim::Checkpointable {
 public:
  std::string checkpointName() const override;

 private:
  long live_ = 0;
  long done_ = 0;
  SIM_STATE_MEMBERS(live_);
};
