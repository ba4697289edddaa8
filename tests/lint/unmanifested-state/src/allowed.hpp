// Fixture: the identical defects carry allow() annotations and are silent.

class Counter final : public sim::Component {
 public:
  void evaluate() override;

 private:
  long count_ = 0;
  long pending_ = 0;  // mpsoc-lint: allow(unmanifested-state)
  SIM_STATE_MEMBERS(count_, count_, tyop_);  // mpsoc-lint: allow(unmanifested-state)
};

// A class-declaration allow() vouches for the whole class.
class NoManifest final : public sim::Component {  // mpsoc-lint: allow(unmanifested-state)
 public:
  void evaluate() override;

 private:
  long level_ = 0;
};

class Books final : public sim::Checkpointable {
 public:
  std::string checkpointName() const override;

 private:
  long live_ = 0;
  long done_ = 0;  // mpsoc-lint: allow(unmanifested-state)
  SIM_STATE_MEMBERS(live_);
};
